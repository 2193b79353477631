#pragma once

#include "llm/decision_policy.hpp"
#include "llm/latency_model.hpp"
#include "llm/message.hpp"
#include "llm/model_profile.hpp"
#include "llm/thought_generator.hpp"
#include "util/rng.hpp"

namespace reasched::llm {

/// The offline stand-in for a hosted reasoning model (see ARCHITECTURE.md,
/// "Substitutions"). Implements the same Client interface a real HTTP backend
/// would: takes a rendered prompt, returns ReAct-formatted text
/// ("Thought: ...\nAction: ...") plus latency and token accounting.
///
/// Internally it (1) runs the multiobjective DecisionPolicy over the
/// structured PromptContext side channel, (2) renders a natural-language
/// Thought from the actual score decomposition, and (3) samples latency
/// from the profile's calibrated model. Deterministic given (profile, seed).
class SimulatedReasoner final : public Client {
 public:
  SimulatedReasoner(ModelProfile profile, std::uint64_t seed);

  Response complete(const Request& request) override;
  std::string model_name() const override { return profile_.display_name; }
  void reset() override;

  const ModelProfile& profile() const { return profile_; }
  /// Decision trace of the most recent complete() (tests introspect this).
  const PolicyDecision& last_decision() const { return last_decision_; }

 private:
  ModelProfile profile_;
  std::uint64_t seed_;
  util::Rng rng_;
  DecisionPolicy policy_;
  ThoughtGenerator thoughts_;
  PolicyDecision last_decision_;
};

}  // namespace reasched::llm
