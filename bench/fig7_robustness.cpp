// Figure 7 (Section 4, statistical robustness): distribution of normalized
// metrics for the Heterogeneous Mix workload with 100 dynamically arriving
// jobs over 5 independent repetitions per method, normalized to FCFS.
//
// Expected shape: LLM schedulers show tight variance with consistent
// improvements; OR-Tools attains top utilization but larger fairness
// variance (stochastic annealing); FCFS/SJF are deterministic and flat; no
// significant LLM outliers on the negative metrics.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/normalize.hpp"
#include "util/csv.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main() {
  bench::print_header(
      "Figure 7 - robustness (Heterogeneous Mix, 100 jobs, 5 repetitions)",
      "box statistics of FCFS-normalized metrics across repeated runs");

  constexpr std::size_t kReps = 5;
  const auto jobs = workload::generate_scenario("hetero_mix", 100, 424242);

  // FCFS is deterministic: one run defines the normalization baseline.
  const auto baseline = harness::run_method(jobs, "fcfs", 1).metrics;

  util::TextTable table(
      {"Metric", "Method", "Min", "Q1", "Median", "Q3", "Max", "Mean", "StdDev"});
  util::CsvTable csv({"metric", "method", "rep", "value", "normalized"});

  std::map<harness::MethodSpec, metrics::MetricAggregate> aggregates;
  for (const auto& method : harness::paper_methods()) {
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const auto outcome =
          harness::run_method(jobs, method, util::derive_seed(5150, "rep", rep + 1));
      aggregates[method].add(outcome.metrics);
      for (const auto metric : metrics::all_metrics()) {
        const auto norm = metrics::normalize(outcome.metrics, baseline, metric);
        csv.add_row({metrics::to_string(metric), harness::method_label(method),
                     std::to_string(rep), util::format("%.6f", outcome.metrics.get(metric)),
                     util::format("%.6f", norm.value)});
      }
    }
  }

  for (const auto metric : metrics::all_metrics()) {
    const double base = baseline.get(metric);
    for (const auto& method : harness::paper_methods()) {
      auto values = aggregates[method].values(metric);
      if (base != 0.0) {
        for (auto& v : values) v /= base;
      }
      const auto box = util::box_stats(values);
      table.add_row({metrics::to_string(metric), harness::method_label(method),
                     util::TextTable::num(box.min, 3), util::TextTable::num(box.q1, 3),
                     util::TextTable::num(box.median, 3), util::TextTable::num(box.q3, 3),
                     util::TextTable::num(box.max, 3), util::TextTable::num(box.mean, 3),
                     util::TextTable::num(util::stddev(values), 4)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());

  // Variance headline: deterministic heuristics flat, LLMs tight, OR looser
  // on fairness.
  auto fairness_std = [&](const harness::MethodSpec& m) {
    return util::stddev(aggregates[m].values(metrics::Metric::kWaitFairness));
  };
  std::printf("Wait-fairness stddev across reps: FCFS %.4f | SJF %.4f | OR-Tools* %.4f | "
              "Claude %.4f | O4 %.4f\n",
              fairness_std("fcfs"), fairness_std("sjf"), fairness_std("opt:portfolio"),
              fairness_std("agent:claude37"), fairness_std("agent:o4mini"));

  const std::string path = bench::results_path("fig7_robustness.csv");
  csv.save(path);
  std::printf("CSV written to %s\n", path.c_str());
  return 0;
}
