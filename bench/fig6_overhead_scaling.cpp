// Figure 6: LLM computational overhead scaling with job queue size for the
// Heterogeneous Mix workload: total elapsed time (left), LLM call count
// (middle), per-call latency distribution (right).
//
// Expected shape (paper Section 3.7.2): both models grow monotonically;
// O4-Mini super-linear from ~40 jobs (paper reaches ~4000 s at 100 jobs
// with a transient spike at 80; we reproduce the super-linearity, not the
// one-off network spike), Claude near-linear (~700 s at 100); call counts
// scale linearly for both; O4's latency spread widens with scale, with
// outliers beyond 200 s.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "util/csv.hpp"
#include "util/time_format.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main() {
  bench::print_header("Figure 6 - overhead scaling (Heterogeneous Mix, 10..100 jobs)",
                      "successful StartJob/BackfillJob calls only");

  const std::vector<harness::MethodSpec> models = {"agent:claude37", "agent:o4mini"};
  util::TextTable table({"Jobs", "Model", "Elapsed", "Calls", "Placed", "Mean s",
                         "Median s", "p95 s", "Max s", "Outliers"});
  util::CsvTable csv({"n_jobs", "model", "elapsed_s", "calls", "successful",
                      "latency_mean_s", "latency_p95_s", "latency_max_s"});

  std::map<harness::MethodSpec, std::vector<double>> elapsed_series;
  for (const auto n : workload::paper_job_counts()) {
    const auto jobs = workload::generate_scenario("hetero_mix", n, 9229);
    for (const auto& model : models) {
      const auto outcome = harness::run_method(jobs, model, 9229);
      const auto& o = outcome.overhead.value();
      elapsed_series[model].push_back(o.total_elapsed_s);

      std::vector<std::string> cells = {std::to_string(n), harness::method_label(model),
                                        util::format_duration(o.total_elapsed_s),
                                        std::to_string(o.n_calls),
                                        std::to_string(o.n_successful)};
      for (auto& c : bench::latency_stat_cells(o.latencies)) cells.push_back(std::move(c));
      table.add_row(std::move(cells));
      csv.add_row({std::to_string(n), harness::method_label(model),
                   util::format("%.3f", o.total_elapsed_s), std::to_string(o.n_calls),
                   std::to_string(o.n_successful),
                   util::format("%.3f", util::mean(o.latencies)),
                   util::format("%.3f", util::quantile(o.latencies, 0.95)),
                   util::format("%.3f", util::max_of(o.latencies))});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());

  // Growth-shape check: elapsed(100)/elapsed(40) vs linear expectation 2.5x.
  for (const auto& model : models) {
    const auto& series = elapsed_series[model];
    const double growth = series[2] > 0 ? series.back() / series[2] : 0.0;
    std::printf("%s: elapsed grows %.1fx from 40 to 100 jobs (linear would be 2.5x)\n",
                harness::method_label(model).c_str(), growth);
  }

  const std::string path = bench::results_path("fig6_overhead_scaling.csv");
  csv.save(path);
  std::printf("\nCSV written to %s\n", path.c_str());
  return 0;
}
