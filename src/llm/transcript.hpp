#pragma once

#include <vector>

#include "sim/action.hpp"

namespace reasched::llm {

/// Accounting record of one LLM call, as used by the paper's computational
/// overhead analysis (Section 3.7).
struct CallRecord {
  double latency_seconds = 0.0;
  int prompt_tokens = 0;
  int completion_tokens = 0;
  sim::ActionType action = sim::ActionType::kDelay;
  /// Accepted by constraint enforcement?
  bool accepted = false;
};

/// Collects call records across one simulation run and derives the Figure
/// 5/6 statistics. Following Section 3.7.1, "successful" restricts to calls
/// whose action was a feasible, accepted StartJob/BackfillJob - Delay calls
/// are excluded so latency is not conflated with saturation.
class Transcript {
 public:
  void add(CallRecord record) { calls_.push_back(record); }
  void clear() { calls_.clear(); }

  const std::vector<CallRecord>& calls() const { return calls_; }
  std::size_t n_calls() const { return calls_.size(); }

  std::size_t n_successful() const;
  /// Sum of latencies over successful scheduling calls ("total elapsed
  /// scheduling time" in Figure 5/6).
  double total_elapsed_successful() const;
  std::vector<double> successful_latencies() const;

  /// Token totals across all calls (context-growth diagnostics).
  long long total_prompt_tokens() const;
  long long total_completion_tokens() const;

  /// Mark the most recent call accepted/rejected (the agent learns the
  /// verdict only after the engine validates the action).
  void set_last_verdict(bool accepted);

 private:
  std::vector<CallRecord> calls_;
};

}  // namespace reasched::llm
