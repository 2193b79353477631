#pragma once

#include <string>

#include "llm/latency_model.hpp"

namespace reasched::llm {

/// Objective temperament of a simulated reasoning model: how it weighs the
/// four prompt objectives when scoring candidate jobs, plus behavioural
/// noise. Calibrated so the two models reproduce the paper's qualitative
/// differences (Section 3.5): Claude 3.7 balanced with a fairness lean;
/// O4-Mini efficiency-leaning ("prioritizing easy wins"), which costs it
/// fairness in Resource Sparse / Homogeneous Short.
struct PolicyTemperament {
  double w_fairness = 0.25;
  double w_makespan = 0.20;
  double w_utilization = 0.25;
  double w_throughput = 0.30;
  /// Gumbel noise scale added to candidate scores (run-to-run variation -
  /// the paper observes residual nondeterminism even at temperature 0).
  double decision_noise = 0.03;
  /// Probability of proposing a non-fitting job (hallucinated feasibility),
  /// exercising the constraint-feedback loop of Section 2.4.
  double hallucination_rate = 0.02;
  /// Reluctance to start long jobs that would push the blocked head job
  /// past its shadow time (EASY-style reservation pressure, 0..1).
  double reservation_pressure = 0.5;
};

/// Complete description of one simulated model endpoint.
struct ModelProfile {
  std::string display_name;  ///< "Claude 3.7"
  std::string api_id;        ///< "claude-3-7-sonnet@vertex"
  int max_completion_tokens = 5000;
  double temperature = 0.0;
  PolicyTemperament temperament;
  LatencyParams latency;
  /// Hidden reasoning tokens emitted per decision (affects completion-token
  /// accounting; O4-Mini's "reasoning effort: high" burns many).
  int reasoning_tokens = 0;
};

/// Anthropic Claude 3.7 Sonnet as configured in paper Section 3.3
/// (Vertex AI, max 5000 tokens, temperature 0).
ModelProfile claude37_profile();

/// OpenAI O4-Mini as configured in paper Section 3.3 (Azure, reasoning
/// effort high, 100k context, temperature fixed internally).
ModelProfile o4mini_profile();

/// Extension (paper Sections 3.7.3 / 6): a hypothetical on-prem fast
/// reasoning model - Claude-like decisions at ~20x lower latency. Used by
/// the `ablation_deployment` row of bench/repro to project deployment
/// feasibility.
ModelProfile fast_local_profile();

}  // namespace reasched::llm
