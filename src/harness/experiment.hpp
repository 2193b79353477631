#pragma once

#include <optional>
#include <vector>

#include "harness/methods.hpp"
#include "llm/transcript.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"

namespace reasched::harness {

/// Overhead accounting captured from LLM-backed runs (empty for baselines):
/// exactly the quantities of paper Figures 5-6.
struct OverheadSummary {
  std::size_t n_calls = 0;             ///< all LLM calls issued
  std::size_t n_successful = 0;        ///< accepted StartJob/BackfillJob calls
  double total_elapsed_s = 0.0;        ///< sum of successful-call latencies
  std::vector<double> latencies;       ///< per successful call
  long long prompt_tokens = 0;
  long long completion_tokens = 0;
};

/// One simulated run of one method over one job list.
struct RunOutcome {
  metrics::MetricSet metrics;
  sim::ScheduleResult schedule;
  std::optional<OverheadSummary> overhead;  ///< present for LLM methods
};

/// Run `method` over `jobs` with the given seed/engine config: one
/// sim::Engine::run, then the metrics (when any job completed) and, for an
/// agent, its overhead summary. The engine config's cluster must match the
/// one the jobs were generated for. Accepts any spec (string literals
/// convert implicitly):
/// `run_method(jobs, "agent:claude37?window=arrival:32", seed)`.
RunOutcome run_method(const std::vector<sim::Job>& jobs, const MethodSpec& method,
                      std::uint64_t seed, const sim::EngineConfig& engine_config = {});

}  // namespace reasched::harness
