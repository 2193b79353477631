// Figure 3: normalized performance metrics across six workload scenarios
// with 60 jobs each, all metrics relative to FCFS (= 1.0). Heterogeneous Mix
// is covered by the scalability analysis (fig4), exactly as in the paper.
//
// Expected shape (paper Section 3.5): LLM schedulers stay balanced across
// objectives; OR-Tools leads utilization/throughput but degrades fairness;
// FCFS/SJF suffer the convoy effect in Long-Job Dominant; Adversarial,
// Homogeneous Short and Resource Sparse flatten differences; undefined 0/0
// wait-time normalizations are printed as n/a and omitted from comparison.

#include <cstdio>

#include "bench_common.hpp"
#include "harness/sweep.hpp"
#include "metrics/report.hpp"

using namespace reasched;

int main() {
  bench::print_header("Figure 3 - scenario comparison (60 jobs, normalized to FCFS)",
                      "six scenarios x five methods, Poisson arrivals, 2 repetitions");

  harness::SweepConfig config;
  // The figure-3 panel: the paper scenarios without Heterogeneous Mix, which
  // the scalability analysis covers (Section 3.6).
  config.scenarios = {"homog_short", "long_job", "high_parallel",
                      "resource_sparse", "bursty_idle", "adversarial"};
  config.job_counts = {60};
  config.methods = harness::paper_methods();
  config.repetitions = 2;
  config.base_seed = 20250611;

  const auto results = harness::run_sweep(config);
  const auto groups = harness::aggregate_sweep(results);

  util::CsvTable csv({"scenario", "method", "metric", "value", "normalized", "defined"});
  for (const auto& scenario : config.scenarios) {
    std::vector<metrics::MethodResult> rows;
    for (const auto method : config.methods) {
      const auto& agg = groups.at({scenario, 60, method});
      rows.push_back({harness::method_label(method), agg.mean_set()});
    }
    std::printf("--- %s ---\n%s\n", workload::scenario_label(scenario).c_str(),
                workload::ScenarioRegistry::instance().at(scenario.base.name).doc.c_str());
    std::printf("%s\n", metrics::render_normalized_table(rows, "FCFS").c_str());

    const auto& baseline = rows.front().metrics;
    for (const auto& row : rows) {
      for (const auto metric : metrics::all_metrics()) {
        const auto n = metrics::normalize(row.metrics, baseline, metric);
        csv.add_row({workload::scenario_label(scenario), row.method,
                     metrics::to_string(metric),
                     util::format("%.6f", row.metrics.get(metric)),
                     util::format("%.6f", n.value), n.defined ? "1" : "0"});
      }
    }
  }
  const std::string path = bench::results_path("fig3_scenario_comparison.csv");
  csv.save(path);
  std::printf("CSV written to %s\n", path.c_str());
  return 0;
}
