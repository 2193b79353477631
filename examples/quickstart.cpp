// Quickstart: generate a small heterogeneous workload, schedule it with the
// Claude-profile ReAct agent, and print the schedule, metrics and an excerpt
// of the reasoning trace.
//
//   ./examples/quickstart [--jobs 12] [--seed 7]

#include <cstdio>

#include "core/factory.hpp"
#include "metrics/gantt.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto n_jobs = static_cast<std::size_t>(args.get_int("jobs", 12));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  // 1. Generate a workload: the paper's Heterogeneous Mix scenario with
  //    Poisson arrivals on the default 256-node / 2048 GB cluster.
  const workload::ScenarioSpec scenario = "hetero_mix";
  const auto jobs = workload::generate_scenario(scenario, n_jobs, seed);
  std::printf("Generated %zu jobs for scenario '%s'\n\n", jobs.size(),
              workload::scenario_label(scenario).c_str());

  // 2. Build the ReAct scheduling agent (simulated Claude 3.7 backend) and
  //    run it through the discrete-event simulator.
  const auto agent = core::make_claude37_agent(seed);
  sim::Engine engine;  // paper-default cluster, constraint enforcement on
  const sim::ScheduleResult result = engine.run(jobs, *agent);

  // 3. Print the realized schedule.
  util::TextTable schedule({"Job", "User", "Nodes", "Mem GB", "Submit", "Start", "End", "Wait"});
  for (const auto& c : result.completed) {
    schedule.add_row({std::to_string(c.job.id), util::format("user_%d", c.job.user),
                      std::to_string(c.job.nodes), util::TextTable::num(c.job.memory_gb, 0),
                      util::TextTable::num(c.job.submit_time, 0),
                      util::TextTable::num(c.start_time, 0),
                      util::TextTable::num(c.end_time, 0),
                      util::TextTable::num(c.wait_time(), 0)});
  }
  std::printf("%s\n", schedule.render().c_str());

  // 4. Metrics (the paper's seven objectives).
  const auto m = metrics::compute_metrics(result, engine.config().cluster);
  std::printf("Makespan        %.0f s\n", m.makespan);
  std::printf("Avg wait        %.1f s\n", m.avg_wait);
  std::printf("Avg turnaround  %.1f s\n", m.avg_turnaround);
  std::printf("Throughput      %.4f jobs/s\n", m.throughput);
  std::printf("Node util       %.1f%%\n", m.node_util * 100);
  std::printf("Memory util     %.1f%%\n", m.mem_util * 100);
  std::printf("Wait fairness   %.3f (Jain)\n", m.wait_fairness);
  std::printf("User fairness   %.3f (Jain)\n", m.user_fairness);
  std::printf("Energy          %.1f kWh\n\n", m.energy_kwh);

  // 5. The schedule at a glance ('.' = queued, '#' = running).
  std::printf("%s\n",
              metrics::render_gantt(result, engine.config().cluster).c_str());

  // 6. A slice of the interpretable reasoning trace (paper Figure 2).
  std::printf("--- first two decisions ---\n");
  std::size_t shown = 0;
  for (const auto& d : result.decisions) {
    std::printf("[t=%.0f] Action: %s%s\n", d.time, d.action.to_string().c_str(),
                d.accepted ? "" : "  [rejected]");
    if (!d.thought.empty()) std::printf("Thought: %s\n", d.thought.c_str());
    if (!d.feedback.empty()) std::printf("%s\n", d.feedback.c_str());
    std::printf("\n");
    if (++shown == 2) break;
  }
  std::printf("LLM calls: %zu (%zu accepted placements), simulated API time %.1f s\n",
              agent->transcript().n_calls(), agent->transcript().n_successful(),
              agent->transcript().total_elapsed_successful());
  return 0;
}
