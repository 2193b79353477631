// Figure 5: computational overhead across six workload scenarios (60 jobs):
// total elapsed scheduling time (left), number of LLM calls (middle), and
// the per-call latency distribution (right) for Claude 3.7 vs O4-Mini.
// Following Section 3.7.1, only calls that produced feasible, accepted
// StartJob/BackfillJob actions are measured.
//
// Expected shape: Claude consistently lower total elapsed time (paper: up
// to ~7x faster on Heterogeneous Mix) with per-call latencies tightly
// clustered below 10 s; O4-Mini heavy-tailed with >100 s outliers
// concentrated in heterogeneous queues; call counts approximately equal to
// the job count for both models.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "util/csv.hpp"
#include "util/time_format.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main() {
  bench::print_header(
      "Figure 5 - overhead per workload (60 jobs, successful calls only)",
      "simulated API latencies; elapsed = sum of successful-call latencies");

  // Panels as spec strings; a parameterized variant is a one-line edit here.
  const std::vector<workload::ScenarioSpec> scenarios = {
      "homog_short", "long_job",   "high_parallel", "resource_sparse",
      "bursty_idle", "adversarial", "hetero_mix"};
  const std::vector<harness::MethodSpec> models = {"agent:claude37", "agent:o4mini"};

  util::TextTable table({"Scenario", "Model", "Elapsed", "Calls", "Placed", "Mean s",
                         "Median s", "p95 s", "Max s", "Outliers"});
  util::CsvTable csv({"scenario", "model", "elapsed_s", "calls", "successful",
                      "latency_mean_s", "latency_median_s", "latency_p95_s",
                      "latency_max_s"});

  std::map<workload::ScenarioSpec, std::map<harness::MethodSpec, double>> elapsed;
  for (const auto& scenario : scenarios) {
    const auto jobs = workload::generate_scenario(scenario, 60, 7331);
    for (const auto& model : models) {
      const auto outcome = harness::run_method(jobs, model, 7331);
      const auto& o = outcome.overhead.value();
      elapsed[scenario][model] = o.total_elapsed_s;

      std::vector<std::string> cells = {workload::scenario_label(scenario),
                                        harness::method_label(model),
                                        util::format_duration(o.total_elapsed_s),
                                        std::to_string(o.n_calls),
                                        std::to_string(o.n_successful)};
      for (auto& c : bench::latency_stat_cells(o.latencies)) cells.push_back(std::move(c));
      table.add_row(std::move(cells));

      const auto box = util::box_stats(o.latencies);
      csv.add_row({workload::scenario_label(scenario), harness::method_label(model),
                   util::format("%.3f", o.total_elapsed_s), std::to_string(o.n_calls),
                   std::to_string(o.n_successful),
                   util::format("%.3f", util::mean(o.latencies)),
                   util::format("%.3f", box.median),
                   util::format("%.3f", util::quantile(o.latencies, 0.95)),
                   util::format("%.3f", box.max)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());

  // Headline ratio: Claude vs O4 elapsed per scenario.
  util::TextTable speed({"Scenario", "O4/Claude elapsed ratio"});
  for (const auto& scenario : scenarios) {
    const double claude = elapsed[scenario][models[0]];
    const double o4 = elapsed[scenario][models[1]];
    speed.add_row({workload::scenario_label(scenario),
                   claude > 0 ? util::TextTable::ratio(o4 / claude) : "n/a"});
  }
  std::printf("%s\n", speed.render().c_str());

  const std::string path = bench::results_path("fig5_overhead_workloads.csv");
  csv.save(path);
  std::printf("CSV written to %s\n", path.c_str());
  return 0;
}
