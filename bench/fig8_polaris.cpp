// Figure 8 (Section 5): normalized performance metrics for 100 jobs from
// the Polaris-like trace substrate, replayed on the 560-node / 512 GB-per-
// node partition with the cluster assumed idle at time zero.
//
// Expected shape: LLM schedulers substantially reduce wait and turnaround
// (comparable to SJF), utilization/throughput on par with all baselines,
// strong fairness for the LLM agents. As in the paper, this is NOT a
// comparison against the real Polaris scheduler.

#include <cstdio>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "metrics/report.hpp"
#include "workload/polaris.hpp"

using namespace reasched;

int main() {
  bench::print_header("Figure 8 - Polaris trace replay (100 jobs, normalized to FCFS)",
                      "synthetic Polaris-like trace -> paper preprocessing -> replay");

  const auto raw_config = [] {
    workload::PolarisTraceConfig c;
    c.n_jobs = 170;
    return c;
  }();
  const auto raw = workload::generate_polaris_raw_trace(raw_config, 20241101);
  raw.save(bench::results_path("fig8_polaris_raw_trace.csv"));
  const auto jobs = workload::preprocess_polaris_trace(raw, 100);
  std::printf("Raw rows: %zu -> preprocessed completed jobs: %zu\n\n", raw.rows(),
              jobs.size());

  sim::EngineConfig engine;
  engine.cluster = sim::ClusterSpec::polaris();

  std::vector<metrics::MethodResult> rows;
  for (const auto& method : harness::paper_methods()) {
    const auto outcome = harness::run_method(jobs, method, 20241101, engine);
    rows.push_back({harness::method_label(method), outcome.metrics});
    if (outcome.overhead) {
      std::printf("%-12s: %zu LLM calls, %.0f s simulated API time\n",
                  harness::method_label(method).c_str(), outcome.overhead->n_calls,
                  outcome.overhead->total_elapsed_s);
    }
  }
  std::printf("\n%s\n", metrics::render_normalized_table(rows, "FCFS").c_str());
  std::printf("(raw values)\n%s\n",
              metrics::render_normalized_table(rows, "FCFS", /*raw=*/true).c_str());

  metrics::normalized_csv(rows, "FCFS").save(bench::results_path("fig8_polaris.csv"));
  std::printf("CSV written to %s\n", bench::results_path("fig8_polaris.csv").c_str());
  return 0;
}
