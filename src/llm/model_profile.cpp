#include "llm/model_profile.hpp"

#include <cmath>

namespace reasched::llm {

ModelProfile claude37_profile() {
  ModelProfile p;
  p.display_name = "Claude 3.7";
  p.api_id = "claude-3-7-sonnet@vertex";
  p.max_completion_tokens = 5000;
  p.temperature = 0.0;

  p.temperament.w_fairness = 0.30;
  p.temperament.w_makespan = 0.20;
  p.temperament.w_utilization = 0.24;
  p.temperament.w_throughput = 0.26;
  p.temperament.decision_noise = 0.01;
  p.temperament.hallucination_rate = 0.01;
  p.temperament.reservation_pressure = 0.65;

  // Figure 5: per-call latencies tightly clustered below 10 s.
  p.latency.base_log_mean = std::log(3.5);
  p.latency.base_log_sigma = 0.28;
  p.latency.token_factor = 0.18;
  p.latency.complexity_gain = 0.25;
  p.latency.tail_probability = 0.01;
  p.latency.tail_log_mean = std::log(12.0);
  p.latency.tail_log_sigma = 0.3;

  p.reasoning_tokens = 350;
  return p;
}

ModelProfile o4mini_profile() {
  ModelProfile p;
  p.display_name = "O4-Mini";
  p.api_id = "o4-mini@azure";
  p.max_completion_tokens = 100000;
  p.temperature = 1.0;  // fixed internally, not user-controllable (S3.3)

  // Efficiency-leaning temperament: strong throughput/utilization pull,
  // weaker fairness - reproduces its poor fairness in low-contention
  // scenarios while staying balanced overall.
  p.temperament.w_fairness = 0.18;
  p.temperament.w_makespan = 0.22;
  p.temperament.w_utilization = 0.28;
  p.temperament.w_throughput = 0.32;
  p.temperament.decision_noise = 0.015;
  p.temperament.hallucination_rate = 0.02;
  p.temperament.reservation_pressure = 0.55;

  // Figures 5-6: high base latency, strong token sensitivity (super-linear
  // total time as the scratchpad grows) and a heavy tail with >100 s spikes
  // concentrated in heterogeneous queues.
  p.latency.base_log_mean = std::log(11.0);
  p.latency.base_log_sigma = 0.55;
  p.latency.token_factor = 1.6;
  p.latency.complexity_gain = 0.9;
  p.latency.tail_probability = 0.10;
  p.latency.tail_log_mean = std::log(75.0);
  p.latency.tail_log_sigma = 0.65;

  p.reasoning_tokens = 2800;
  return p;
}

ModelProfile fast_local_profile() {
  ModelProfile p = claude37_profile();
  p.display_name = "Fast-Local";
  p.api_id = "on-prem-reasoner";
  // ~20x faster: sub-second decisions, negligible token sensitivity.
  p.latency.base_log_mean = std::log(0.18);
  p.latency.base_log_sigma = 0.2;
  p.latency.token_factor = 0.01;
  p.latency.complexity_gain = 0.1;
  p.latency.tail_probability = 0.002;
  p.latency.tail_log_mean = std::log(1.0);
  p.reasoning_tokens = 200;
  return p;
}

}  // namespace reasched::llm
