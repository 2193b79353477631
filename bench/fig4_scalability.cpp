// Figure 4: scalability analysis - normalized performance metrics across
// increasing queue sizes (10..100 jobs) for the Heterogeneous Mix workload.
//
// Expected shape (paper Section 3.6): at 10-20 jobs all methods are close;
// differentiation grows with scale; OR-Tools reaches the highest resource
// utilization (paper: up to ~1.8x) while its fairness collapses; the LLM
// agents keep balanced profiles (throughput/utilization >1.2x with fairness
// maintained); FCFS/SJF stay static.

#include <cstdio>

#include "bench_common.hpp"
#include "harness/sweep.hpp"
#include "metrics/report.hpp"

using namespace reasched;

int main() {
  bench::print_header("Figure 4 - scalability (Heterogeneous Mix, 10..100 jobs)",
                      "normalized to FCFS per size; series per metric below");

  harness::SweepConfig config;
  config.scenarios = {"hetero_mix"};
  config.job_counts = workload::paper_job_counts();
  config.methods = harness::paper_methods();
  config.repetitions = 2;
  config.base_seed = 20250612;

  const auto results = harness::run_sweep(config);
  const auto groups = harness::aggregate_sweep(results);

  util::CsvTable csv({"n_jobs", "method", "metric", "value", "normalized", "defined"});

  // Per-size normalized tables.
  for (const auto n : config.job_counts) {
    std::vector<metrics::MethodResult> rows;
    for (const auto method : config.methods) {
      rows.push_back(
          {harness::method_label(method), groups.at({"hetero_mix", n, method}).mean_set()});
    }
    std::printf("--- %zu jobs ---\n%s\n", n,
                metrics::render_normalized_table(rows, "FCFS").c_str());
    const auto& baseline = rows.front().metrics;
    for (const auto& row : rows) {
      for (const auto metric : metrics::all_metrics()) {
        const auto norm = metrics::normalize(row.metrics, baseline, metric);
        csv.add_row({std::to_string(n), row.method, metrics::to_string(metric),
                     util::format("%.6f", row.metrics.get(metric)),
                     util::format("%.6f", norm.value), norm.defined ? "1" : "0"});
      }
    }
  }

  // Series view: one table per metric, sizes as columns (the figure's lines).
  for (const auto metric :
       {metrics::Metric::kNodeUtil, metrics::Metric::kThroughput,
        metrics::Metric::kWaitFairness, metrics::Metric::kAvgWait}) {
    std::vector<std::string> header = {"Method \\ jobs"};
    for (const auto n : config.job_counts) header.push_back(std::to_string(n));
    util::TextTable series(std::move(header));
    for (const auto method : config.methods) {
      std::vector<std::string> cells = {harness::method_label(method)};
      for (const auto n : config.job_counts) {
        const auto& baseline = groups.at({"hetero_mix", n, "fcfs"}).mean_set();
        const auto& mine = groups.at({"hetero_mix", n, method}).mean_set();
        const auto norm = metrics::normalize(mine, baseline, metric);
        cells.push_back(norm.defined ? util::TextTable::num(norm.value, 2)
                                     : util::TextTable::na());
      }
      series.add_row(std::move(cells));
    }
    std::printf("Series: %s (normalized to FCFS)\n%s\n",
                metrics::to_string(metric).c_str(), series.render().c_str());
  }

  const std::string path = bench::results_path("fig4_scalability.csv");
  csv.save(path);
  std::printf("CSV written to %s\n", path.c_str());
  return 0;
}
