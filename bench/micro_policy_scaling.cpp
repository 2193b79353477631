// Policy-side scaling: indexed SJF/EASY vs their pre-index linear-scan
// implementations, both on the indexed Engine, so the comparison isolates
// the policy-facing indexes (walltime-ordered waiting index, arrival-rank
// backfill segment tree, release-prefix shadow aggregates). The claim is
// that decide() cost no longer grows with queue depth, so decisions/sec
// must improve >= 5x at 10k+ jobs and keep widening - while the decision
// traces stay identical (test_sched_policy_golden proves bit-for-bit; the
// cross-check here guards against benchmarking diverged paths).
//
//   ./bench/micro_policy_scaling [--jobs 1000,10000] [--seed 12345]
//       [--reps 1] [--linear-max 30000] [--trace-jobs 100000] [--no-trace]
//       [--json out.json]
//
// --json writes the indexed-policy decisions/sec per (policy, size) as a
// flat JSON object for the CI bench-regression gate
// (tools/compare_bench.py).
//
// Sizes above --linear-max run the indexed policy only (the linear scans
// are quadratic in queue depth and take minutes at 10^5 jobs). The trace
// section drives a Polaris-month-scale workload - generated by the Polaris
// trace substitute, exported to SWF and re-ingested through parse_swf, so
// the deterministic-tie ingest path is exercised at scale - through
// run_sweep for FCFS/SJF/EASY and records end-to-end throughput.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/sweep.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/linear_reference.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"
#include "workload/polaris.hpp"
#include "workload/swf.hpp"

using namespace reasched;

namespace {

double time_run(sim::Engine& engine, const std::vector<sim::Job>& jobs,
                sim::Scheduler& scheduler, std::size_t reps, sim::ScheduleResult& last) {
  double best_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    last = engine.run(jobs, scheduler);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best_s) best_s = s;
  }
  return best_s;
}

/// A saturated Polaris month: 10^5 jobs at ~120 s mean interarrival keeps
/// the 560-node partition oversubscribed, which is exactly the deep-queue
/// regime the policy indexes exist for.
std::vector<sim::Job> polaris_month_via_swf(std::size_t n_jobs, std::uint64_t seed) {
  workload::PolarisTraceConfig config;
  config.n_jobs = n_jobs + n_jobs / 2 + 20;  // post-filter count reaches n_jobs
  config.mean_interarrival_s = 120.0;
  const auto raw = workload::generate_polaris_raw_trace(config, seed);
  const auto jobs = workload::preprocess_polaris_trace(raw, n_jobs);
  // Round-trip through the SWF exporter/parser: whole-second submit stamps
  // produce masses of same-second ties, so this leans on the stable ingest
  // order for deterministic JobIds.
  workload::SwfOptions options;
  options.default_memory_gb_per_node = 512.0;
  return workload::parse_swf(workload::jobs_to_swf(jobs), options);
}

int run(const util::CliArgs& args) {
  const auto sizes = args.get_sizes("jobs", {1000, 10000});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto reps = args.get_size("reps", 1, 1);
  const auto linear_max = args.get_size("linear-max", 30000);
  const auto trace_jobs = args.get_size("trace-jobs", 100000);
  const bool run_trace = !args.has("no-trace");
  const std::string json_path = args.get("json", "");
  bench::BenchJson json;

  sim::EngineConfig config;
  config.record_traces = false;  // isolate policy cost from trace strings

  struct Variant {
    const char* label;
    std::unique_ptr<sim::Scheduler> indexed;
    std::unique_ptr<sim::Scheduler> linear;
  };
  Variant variants[2] = {
      {"SJF", std::make_unique<sched::SjfScheduler>(),
       std::make_unique<sched::LinearSjfScheduler>()},
      {"EASY", std::make_unique<sched::EasyBackfillScheduler>(),
       std::make_unique<sched::LinearEasyBackfillScheduler>()},
  };

  std::printf(
      "Policy scaling over Heterogeneous Mix, indexed vs pre-index linear scans\n"
      "(both on the indexed engine, record_traces=off, best of %zu):\n\n",
      reps);
  std::printf("  %5s  %8s  %12s  %14s  %14s  %9s  %s\n", "sched", "jobs", "decisions",
              "indexed dec/s", "linear dec/s", "speedup", "check");

  bool all_match = true;
  for (auto& v : variants) {
    for (const std::size_t n : sizes) {
      const auto jobs = workload::generate_scenario("hetero_mix", n, seed);
      sim::Engine engine(config);

      sim::ScheduleResult indexed_result;
      const double indexed_s = time_run(engine, jobs, *v.indexed, reps, indexed_result);
      const double indexed_dps =
          static_cast<double>(indexed_result.n_decisions) / indexed_s;
      json.add(util::format("policy/%s/jobs%zu/dec_per_s", v.label, n), indexed_dps);

      if (n > linear_max) {
        std::printf("  %5s  %8zu  %12zu  %14.0f  %14s  %9s  indexed only\n", v.label, n,
                    indexed_result.n_decisions, indexed_dps, "-", "-");
        continue;
      }
      sim::ScheduleResult linear_result;
      const double linear_s = time_run(engine, jobs, *v.linear, reps, linear_result);
      const double linear_dps = static_cast<double>(linear_result.n_decisions) / linear_s;

      const bool match = indexed_result.n_decisions == linear_result.n_decisions &&
                         indexed_result.final_time == linear_result.final_time &&
                         indexed_result.n_backfills == linear_result.n_backfills;
      all_match = all_match && match;
      std::printf("  %5s  %8zu  %12zu  %14.0f  %14.0f  %8.1fx  %s\n", v.label, n,
                  indexed_result.n_decisions, indexed_dps, linear_dps,
                  linear_dps > 0 ? indexed_dps / linear_dps : 0.0,
                  match ? "equal" : "MISMATCH");
    }
  }

  if (run_trace) {
    std::printf(
        "\nPolaris-month-scale sweep through run_sweep (%zu jobs, 560-node cluster,\n"
        "workload generated -> SWF round-trip -> replayed; one method per timed call):\n\n",
        trace_jobs);
    std::printf("  %14s  %10s  %12s  %10s  %12s\n", "method", "wall (s)", "jobs/s",
                "decisions", "decisions/s");

    for (const harness::MethodSpec method : {"fcfs", "sjf", "easy"}) {
      harness::SweepConfig sweep;
      sweep.scenarios = {"hetero_mix"};  // label only
      sweep.job_counts = {trace_jobs};
      sweep.methods = {method};
      sweep.base_seed = seed;
      sweep.threads = 1;  // timing one cell: keep the pool out of the way
      sweep.engine.cluster = sim::ClusterSpec::polaris();
      sweep.engine.record_traces = false;
      sweep.workload_source = [](const workload::ScenarioSpec&, std::size_t n_jobs,
                                 std::uint64_t workload_seed) {
        return polaris_month_via_swf(n_jobs, workload_seed);
      };

      const auto t0 = std::chrono::steady_clock::now();
      const auto results = harness::run_sweep(sweep);
      const auto t1 = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(t1 - t0).count();

      std::size_t decisions = 0, completed = 0;
      for (const auto& [cell, outcome] : results) {
        decisions += outcome.schedule.n_decisions;
        completed += outcome.schedule.completed.size();
      }
      std::printf("  %14s  %10.2f  %12.0f  %12zu  %12.0f\n",
                  harness::method_label(method).c_str(), s, static_cast<double>(completed) / s,
                  decisions, static_cast<double>(decisions) / s);
    }
  }

  json.save_if(json_path);

  if (!all_match) {
    std::printf("\nFAIL: policies diverged - run test_sched_policy_golden.\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"jobs", "json", "linear-max", "no-trace", "reps", "seed", "trace-jobs"},
                        run);
}
