#include "harness/experiment.hpp"

#include "core/react_agent.hpp"

namespace reasched::harness {

RunOutcome run_method(const std::vector<sim::Job>& jobs, const MethodSpec& method,
                      std::uint64_t seed, const sim::EngineConfig& engine_config) {
  const std::unique_ptr<sim::Scheduler> scheduler = make_scheduler(method, seed);

  RunOutcome outcome;
  outcome.schedule = sim::Engine(engine_config).run(jobs, *scheduler);
  if (!outcome.schedule.completed.empty()) {
    outcome.metrics = metrics::compute_metrics(outcome.schedule, engine_config.cluster);
  }

  if (const auto* agent = dynamic_cast<const core::ReActAgent*>(scheduler.get())) {
    OverheadSummary o;
    const llm::Transcript& t = agent->transcript();
    o.n_calls = t.n_calls();
    o.n_successful = t.n_successful();
    o.total_elapsed_s = t.total_elapsed_successful();
    o.latencies = t.successful_latencies();
    o.prompt_tokens = t.total_prompt_tokens();
    o.completion_tokens = t.total_completion_tokens();
    outcome.overhead = std::move(o);
  }
  return outcome;
}

}  // namespace reasched::harness
