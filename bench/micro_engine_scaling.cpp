// Engine scaling: indexed Engine vs the seed path (ReferenceEngine) on
// identical workloads. The refactor's claim is that per-decision cost no
// longer grows with queue length - sorted-vector re-sorts, erase-by-scan and
// per-query running-allocation copies are gone - so the speedup must widen
// with job count and clear 5x at 10k jobs.
//
//   ./bench/micro_engine_scaling [--jobs 1000,10000] [--seed 12345]
//                                [--scheduler fcfs|sjf|easy] [--reps 1]
//                                [--max-overhead-pct 0] [--json out.json]
//
// --json writes the indexed-engine decisions/sec per size as a flat JSON
// object for the CI bench-regression gate (tools/compare_bench.py), with
// telemetry-on throughput (`obs_on_dec_per_s`) alongside so a regression in
// the instrumented path gates too.
//
// Each size also runs with telemetry enabled (obs counters + sampled
// spans), as alternating off/on pairs per rep so neither side
// systematically gets the cooler CPU. --max-overhead-pct fails the bench
// when the median paired slowdown exceeds it; it defaults to 0 (report
// only) because a sub-20ms cell cannot support a small wall-clock
// threshold reliably - service_sustained_load, whose cells run long
// enough, is where CI enforces the <2% telemetry-overhead gate.
//
// Prints per-size wall times for both engines, the speedup, and a
// decisions-equal cross-check (the golden test proves full equality; the
// cross-check here guards against benchmarking two diverged paths).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics_registry.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

namespace {

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name) {
  if (name == "sjf") return std::make_unique<sched::SjfScheduler>();
  if (name == "easy") return std::make_unique<sched::EasyBackfillScheduler>();
  return std::make_unique<sched::FcfsScheduler>();
}

template <typename EngineT>
double time_once(EngineT& engine, const std::vector<sim::Job>& jobs, sim::Scheduler& scheduler,
                 sim::ScheduleResult& last) {
  const auto t0 = std::chrono::steady_clock::now();
  last = engine.run(jobs, scheduler);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

template <typename EngineT>
double time_run(EngineT& engine, const std::vector<sim::Job>& jobs, sim::Scheduler& scheduler,
                std::size_t reps, sim::ScheduleResult& last) {
  double best_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const double s = time_once(engine, jobs, scheduler, last);
    if (r == 0 || s < best_s) best_s = s;
  }
  return best_s;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto sizes_arg = args.get("jobs", "1000,10000");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 1));
  const std::string scheduler_name = args.get("scheduler", "fcfs");
  const std::string json_path = args.get("json", "");
  const double max_overhead_pct = args.get_double("max-overhead-pct", 0.0);
  bench::BenchJson json;

  std::vector<std::size_t> sizes;
  for (const auto& tok : util::split(sizes_arg, ',')) {
    sizes.push_back(static_cast<std::size_t>(std::stoull(tok)));
  }

  sim::EngineConfig config;
  config.record_traces = false;  // isolate engine cost from trace strings

  std::printf("Engine scaling, %s over Heterogeneous Mix (record_traces=off, best of %zu):\n\n",
              scheduler_name.c_str(), reps);
  std::printf("  %10s  %14s  %14s  %14s  %9s  %9s  %s\n", "jobs", "indexed (s)", "obs on (s)",
              "seed path (s)", "speedup", "obs ovh", "decisions");

  bool all_match = true;
  std::vector<double> rep_off_s(reps, 0.0), rep_on_s(reps, 0.0);
  for (const std::size_t n : sizes) {
    const auto jobs = workload::generate_scenario("hetero_mix", n, seed);

    const auto scheduler = make_scheduler(scheduler_name);
    sim::Engine engine(config);
    sim::ReferenceEngine reference(config);

    // Telemetry off/on as alternating pairs per rep (a fixed order would
    // systematically hand one side the cooler/boosted CPU).
    sim::ScheduleResult indexed_result, obs_result, seed_result;
    double indexed_s = 0.0, obs_s = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const bool on_first = (r % 2) == 1;
      obs::set_enabled(on_first);
      double first_s = time_once(engine, jobs, *scheduler, on_first ? obs_result : indexed_result);
      obs::set_enabled(!on_first);
      double second_s =
          time_once(engine, jobs, *scheduler, on_first ? indexed_result : obs_result);
      obs::set_enabled(false);
      const double off_r = on_first ? second_s : first_s;
      const double on_r = on_first ? first_s : second_s;
      rep_off_s[r] += off_r;
      rep_on_s[r] += on_r;
      if (r == 0 || off_r < indexed_s) indexed_s = off_r;
      if (r == 0 || on_r < obs_s) obs_s = on_r;
    }
    const double seed_s = time_run(reference, jobs, *scheduler, reps, seed_result);

    // Telemetry must be observe-only: the obs-on run is the same engine on
    // the same jobs, so any divergence is an instrumentation bug (the
    // golden test proves full trace equality; this is the cheap guard).
    const bool match = indexed_result.n_decisions == seed_result.n_decisions &&
                       indexed_result.final_time == seed_result.final_time &&
                       indexed_result.n_backfills == seed_result.n_backfills &&
                       obs_result.n_decisions == indexed_result.n_decisions &&
                       obs_result.final_time == indexed_result.final_time &&
                       obs_result.n_backfills == indexed_result.n_backfills;
    all_match = all_match && match;
    const double overhead_pct = (obs_s - indexed_s) / indexed_s * 100.0;
    std::printf("  %10zu  %14.4f  %14.4f  %14.4f  %8.1fx  %+8.2f%%  %s\n", n, indexed_s, obs_s,
                seed_s, seed_s / indexed_s, overhead_pct, match ? "equal" : "MISMATCH");
    const std::string prefix = util::format("engine/%s/jobs%zu", scheduler_name.c_str(), n);
    json.add(prefix + "/dec_per_s", static_cast<double>(indexed_result.n_decisions) / indexed_s);
    json.add(prefix + "/obs_on_dec_per_s",
             static_cast<double>(obs_result.n_decisions) / obs_s);
  }
  json.save_if(json_path);

  if (!all_match) {
    std::printf("\nFAIL: engines diverged - run the golden determinism test.\n");
    return 1;
  }
  // Median of the per-rep paired slowdown ratios, aggregated across sizes
  // (per-size numbers are informational: small sizes are noise-dominated).
  std::vector<double> rep_ratios;
  for (std::size_t r = 0; r < reps; ++r) rep_ratios.push_back(rep_on_s[r] / rep_off_s[r]);
  const double total_overhead_pct = (util::quantile(rep_ratios, 0.5) - 1.0) * 100.0;
  if (max_overhead_pct > 0.0) {
    std::printf("\ntelemetry overhead: %+.2f%% (median of %zu paired reps; gate: <%.1f%%)\n",
                total_overhead_pct, reps, max_overhead_pct);
    if (total_overhead_pct > max_overhead_pct) {
      std::printf("FAIL: telemetry overhead above the gate.\n");
      return 1;
    }
  } else {
    std::printf("\ntelemetry overhead: %+.2f%% (median of %zu paired reps; gate off - see "
                "service_sustained_load)\n",
                total_overhead_pct, reps);
  }
  return 0;
}
