// Ablation: how fragile is each scheduling policy to walltime-estimate
// noise? The paper's related work (Naghshnejad & Singhal 2020) motivates
// runtime-prediction reliability; this bench quantifies it by inflating
// user walltime requests by U(1, f) over the true runtime and watching who
// suffers.
//
// Expected: FCFS is invariant (ignores estimates); OR-Tools is invariant by
// the paper's formulation (Section 3.3 gives the solver the true durations
// d_j); SJF mis-orders jobs as estimates blur; EASY's backfilling weakens
// (inflated estimates disqualify safe backfills, raising wait); the LLM
// agent degrades mildly - estimates feed only one of its four objectives,
// so it is naturally hedged.

#include <cstdio>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main() {
  bench::print_header("Ablation - walltime-estimate noise (Heterogeneous Mix, 60 jobs)",
                      "walltime = runtime x U(1, f); schedulers see walltime only");

  const std::vector<harness::MethodSpec> methods = {"fcfs", "sjf", "easy", "opt:portfolio",
                                                    "agent:claude37"};

  util::TextTable table({"f (over-request)", "Method", "Avg wait", "Makespan",
                         "Node util", "Backfills"});
  util::CsvTable csv({"factor", "method", "avg_wait", "makespan", "node_util",
                      "backfills"});

  for (const double factor : {1.0, 1.5, 3.0, 6.0}) {
    // The noise knob is an ordinary scenario-spec parameter now - the same
    // string works as a sweep axis value or on compare_schedulers
    // --scenario. The base draws are noise-invariant (paired comparison).
    const workload::ScenarioSpec scenario(
        util::format("hetero_mix?walltime_noise=1.0:%.1f", factor));
    const auto jobs = workload::generate_scenario(scenario, 60, 8088);
    for (const auto& method : methods) {
      const auto outcome = harness::run_method(jobs, method, 8088);
      table.add_row({util::TextTable::num(factor, 1), harness::method_label(method),
                     util::TextTable::num(outcome.metrics.avg_wait, 1),
                     util::TextTable::num(outcome.metrics.makespan, 0),
                     util::TextTable::num(outcome.metrics.node_util, 3),
                     std::to_string(outcome.schedule.n_backfills)});
      csv.add_row({util::format("%.1f", factor), harness::method_label(method),
                   util::format("%.3f", outcome.metrics.avg_wait),
                   util::format("%.3f", outcome.metrics.makespan),
                   util::format("%.5f", outcome.metrics.node_util),
                   std::to_string(outcome.schedule.n_backfills)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  csv.save(bench::results_path("ablation_estimate_noise.csv"));
  std::printf("CSV written to %s\n",
              bench::results_path("ablation_estimate_noise.csv").c_str());
  return 0;
}
