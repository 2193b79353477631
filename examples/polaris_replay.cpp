// Reproduce the paper's Section 5 workflow on the Polaris-like trace
// substrate: generate (or load) a raw job-history CSV, run the preprocessing
// pipeline (filter failures, normalize, factorize, derive memory), replay
// the jobs through every scheduler on the 560-node Polaris partition, and
// print the Figure-8-style normalized table.
//
//   ./examples/polaris_replay [--jobs 100] [--seed 11] [--trace file.csv]
//                             [--save-raw results/polaris_raw.csv]
//
// Every method replays the same preprocessed jobs under the same --seed,
// one run_method call each. Without --trace, `compare_schedulers
// --scenario polaris` reaches the same substrate through the scenario
// registry and the parallel sweep.

#include <cstdio>

#include "harness/experiment.hpp"
#include "metrics/report.hpp"
#include "util/cli.hpp"
#include "workload/polaris.hpp"

using namespace reasched;

static int run(const util::CliArgs& args) {
  const auto n_jobs = args.get_size("jobs", 100);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  // Raw trace: from disk if provided, otherwise the synthetic generator.
  util::CsvTable raw;
  if (args.has("trace")) {
    raw = util::CsvTable::load(args.get("trace", ""));
    std::printf("Loaded raw trace: %zu rows\n", raw.rows());
  } else {
    workload::PolarisTraceConfig config;
    config.n_jobs = n_jobs + n_jobs / 2 + 20;
    raw = workload::generate_polaris_raw_trace(config, seed);
    std::printf("Generated synthetic Polaris-like raw trace: %zu rows\n", raw.rows());
  }
  if (args.has("save-raw")) {
    raw.save(args.get("save-raw", "results/polaris_raw.csv"));
    std::printf("Saved raw trace to %s\n", args.get("save-raw", "").c_str());
  }

  const auto jobs = workload::preprocess_polaris_trace(raw, n_jobs);
  std::printf("After preprocessing: %zu completed jobs (failed filtered, timestamps "
              "normalized, users factorized, memory = nodes x 512 GB)\n\n",
              jobs.size());

  sim::EngineConfig engine;
  engine.cluster = sim::ClusterSpec::polaris();  // 560 nodes, idle at t=0

  std::vector<metrics::MethodResult> rows;
  for (const auto& method : harness::paper_methods()) {
    const auto outcome = harness::run_method(jobs, method, seed, engine);
    rows.push_back({harness::method_label(method), outcome.metrics});
  }
  std::printf("Normalized performance on the Polaris trace (FCFS = 1.0):\n\n%s",
              metrics::render_normalized_table(rows, "FCFS").c_str());
  std::printf("\nNote: as in the paper, the cluster is assumed idle at time zero, so this "
              "is not a comparison against the real Polaris scheduler.\n");
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"jobs", "save-raw", "seed", "trace"}, run);
}
