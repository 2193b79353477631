#pragma once

#include <cstdint>

#include "sim/planning_window.hpp"

namespace reasched::core {

/// Configuration of the ReAct scheduling agent (paper Section 2). Defaults
/// reproduce the paper's setup; the scratchpad ablation turns
/// `scratchpad_enabled` off. The prompt always carries the multiobjective
/// block, and the scratchpad's token budget is a constant of ReActAgent.
struct AgentConfig {
  /// Persistent scratchpad memory across timesteps (Section 2.2). When off,
  /// every prompt starts from a blank history - the agent loses both its
  /// decision log and constraint feedback.
  bool scratchpad_enabled = true;
  /// Planning window bounding how many waiting jobs the prompt lists and
  /// the policy scores per decision (top_k = 0 reproduces the paper's
  /// all-jobs prompt exactly). At trace scale an unbounded prompt grows
  /// with queue depth; the window keeps prompt tokens, reasoning tokens and
  /// per-decision scoring cost flat.
  sim::PlanningWindow window;
  /// Seed for the agent's client (decision noise + latency sampling).
  std::uint64_t seed = 1;
};

}  // namespace reasched::core
