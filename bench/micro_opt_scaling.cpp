// Optimizer/agent-layer scaling: per-decision solver cost on a deep waiting
// queue, with and without the planning window (sim::PlanningWindow). PR 1/2
// made the engine and the classical policies flat in queue depth; this bench
// pins the remaining layer the paper evaluates - the src/opt solver
// portfolio behind the OR-Tools* baseline - whose every plan evaluation
// decodes the whole visible job set (O(n log n) per evaluation). The claim:
// with a bounded window the per-decision cost stops growing with queue
// depth, so windowed decisions/sec must clear 5x over the unbounded path at
// 10k waiting jobs for the portfolio solvers, while the zero-copy
// ProblemView stays bit-identical to the copying Problem oracle
// (tests/test_opt_golden.cpp proves it; the cross-check column here guards
// against benchmarking diverged paths).
//
//   ./bench/micro_opt_scaling [--jobs 1000,10000] [--seed 12345] [--reps 3]
//       [--window 64] [--unbounded-max 30000] [--json out.json]
//
// Budgets are bench-sized (a few hundred evaluations per solver) so the
// unbounded 10k runs stay tractable; the windowed/unbounded ratio is what
// matters, not absolute plan quality. --json writes windowed and unbounded
// decisions/sec per (solver, size) for the CI bench-regression gate
// (tools/compare_bench.py).
//
// PR 6 adds evaluations/sec (the unit the incremental-evaluation layer with
// bound cutoffs targets; for B&B the count is explored nodes) and the
// windowed-over-full decisions/sec ratio, so speedups decompose into
// "cheaper evaluations" vs "fewer jobs decoded".
//
// Each cell repeats its plan call until it has --reps calls and at least
// 50 ms of measured time, and reports the best per-call time.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opt/branch_and_bound.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/simulated_annealing.hpp"
#include "sim/planning_window.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

namespace {

/// A frozen deep-queue decision point: every generated job waiting, a few
/// synthetic running allocations pinning resources, clock past the last
/// arrival. Owns all storage the DecisionContext views borrow.
struct DeepQueue {
  sim::JobTable table;
  sim::ClusterState cluster;
  std::vector<sim::CompletedJob> completed;
  double now = 0.0;

  DeepQueue(std::size_t n_jobs, std::uint64_t seed)
      : cluster(sim::ClusterSpec::paper_default()) {
    const auto jobs = workload::generate_scenario("hetero_mix", n_jobs, seed);
    table.build(jobs);
    for (const auto& j : jobs) now = std::max(now, j.submit_time);
    now += 1.0;
    for (const auto& j : jobs) table.arrive(j.id);

    // Pin part of the cluster with running work so decode's release loop is
    // exercised (ids outside the table's arena).
    for (int r = 0; r < 6; ++r) {
      sim::Job running;
      running.id = 1000000 + r;
      running.nodes = 8;
      running.memory_gb = 64.0;
      running.duration = 300.0 + 60.0 * r;
      running.walltime = running.duration;
      running.submit_time = 0.0;
      cluster.allocate(running, now - 10.0 * r);
    }
  }

  sim::DecisionContext context() const {
    return sim::DecisionContext{now,
                                cluster,
                                table.waiting_view(),
                                table.ineligible_view(),
                                cluster.running_view(),
                                completed,
                                false,
                                &table};
  }
};

struct Solver {
  const char* label;
  /// One decision's worth of solver work over the visible job set. Reports
  /// the candidate evaluations it performed (B&B: explored nodes) so the
  /// bench can express throughput as evaluations/sec.
  double (*plan)(const opt::ProblemView&, util::Rng&, std::size_t& evals);
};

const opt::ObjectiveWeights kWeights;

double plan_list(const opt::ProblemView& p, util::Rng&, std::size_t& evals) {
  double best = opt::evaluate(opt::decode_order(p, opt::order_spt(p)), kWeights);
  for (const auto& seed :
       {opt::order_by_arrival(p), opt::order_lpt(p), opt::order_widest(p)}) {
    best = std::min(best, opt::evaluate(opt::decode_order(p, seed), kWeights));
  }
  evals = 4;
  return best;
}

double plan_bnb(const opt::ProblemView& p, util::Rng&, std::size_t& evals) {
  opt::BnbConfig config;
  config.max_nodes = 2000;
  const auto r = opt::branch_and_bound(p, kWeights, config);
  evals = r.explored;
  return r.score;
}

double plan_local(const opt::ProblemView& p, util::Rng&, std::size_t& evals) {
  const auto r = opt::local_search(p, opt::order_spt(p), kWeights, 200);
  evals = r.evaluations;
  return r.score;
}

double plan_sa(const opt::ProblemView& p, util::Rng& rng, std::size_t& evals) {
  opt::SaConfig config;
  config.iterations = 400;
  const auto r = opt::simulated_annealing(p, opt::order_spt(p), kWeights, config, rng);
  evals = r.evaluations;
  return r.score;
}

/// Minimum measured time per cell: a windowed plan call on 1000 jobs takes
/// well under a millisecond, so a handful of calls is shorter than the
/// scheduling noise of a shared machine.
constexpr double kMinCellSeconds = 0.05;

/// Best per-call seconds for one plan invocation, over at least `reps` calls
/// and at least kMinCellSeconds of measured time (fresh deterministic rng
/// per call so repetitions measure the same work).
double time_plan(const Solver& solver, const opt::ProblemView& view, std::uint64_t seed,
                 std::size_t reps, double& score_out, std::size_t& evals_out) {
  double best_s = 0.0;
  double total_s = 0.0;
  for (std::size_t r = 0; r < reps || total_s < kMinCellSeconds; ++r) {
    util::Rng rng(seed);
    const auto t0 = std::chrono::steady_clock::now();
    score_out = solver.plan(view, rng, evals_out);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    total_s += s;
    if (r == 0 || s < best_s) best_s = s;
  }
  return best_s;
}

int run(const util::CliArgs& args) {
  const auto sizes = args.get_sizes("jobs", {1000, 10000});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto reps = args.get_size("reps", 3, 1);
  const auto window_k = args.get_size("window", 64);
  const auto unbounded_max = args.get_size("unbounded-max", 30000);
  const std::string json_path = args.get("json", "");
  bench::BenchJson json;

  const Solver solvers[] = {
      {"list", plan_list}, {"bnb", plan_bnb}, {"local", plan_local}, {"sa", plan_sa}};

  std::printf(
      "Optimizer-layer scaling over Heterogeneous Mix deep queues, windowed\n"
      "(top-%zu by arrival) vs unbounded ProblemView, bench-sized budgets,\n"
      "best per-call time over >= %zu calls and >= %.0f ms per cell:\n\n",
      window_k, reps, kMinCellSeconds * 1e3);
  std::printf("  %6s  %8s  %14s  %14s  %9s  %12s  %s\n", "solver", "jobs", "windowed dec/s",
              "unbounded dec/s", "speedup", "full evals/s", "check");

  bool all_match = true;
  for (const std::size_t n : sizes) {
    const DeepQueue state(n, seed);
    const sim::DecisionContext ctx = state.context();

    // Cross-check: the zero-copy view and the copying oracle must agree on
    // the decoded cost of the same permutation, bitwise.
    const opt::Problem oracle = opt::Problem::from_context(ctx);
    const opt::ProblemView view = opt::ProblemView::from_context(ctx);
    const auto spt = opt::order_spt(view);
    const bool match = opt::evaluate(opt::decode_order(view, spt), kWeights) ==
                       opt::evaluate(opt::decode_order(oracle, spt), kWeights);
    all_match = all_match && match;

    sim::PlanningWindow window;
    window.top_k = window_k;
    std::vector<std::uint32_t> positions;
    const bool bounded = window.select(ctx.waiting, positions);
    const opt::ProblemView windowed =
        opt::ProblemView::from_context(ctx, bounded ? &positions : nullptr);

    for (const Solver& solver : solvers) {
      double score = 0.0;
      std::size_t evals = 0;
      const double win_s = time_plan(solver, windowed, seed, reps, score, evals);
      const double win_dps = 1.0 / win_s;
      json.add(util::format("opt/%s/jobs%zu/win%zu/dec_per_s", solver.label, n, window_k),
               win_dps);
      json.add(util::format("opt/%s/jobs%zu/win%zu/evals_per_s", solver.label, n, window_k),
               static_cast<double>(evals) / win_s);

      if (n > unbounded_max) {
        std::printf("  %6s  %8zu  %14.1f  %14s  %9s  %12s  %s\n", solver.label, n, win_dps,
                    "-", "-", "-", match ? "equal" : "MISMATCH");
        continue;
      }
      const double full_s = time_plan(solver, view, seed, reps, score, evals);
      const double full_dps = 1.0 / full_s;
      const double full_eps = static_cast<double>(evals) / full_s;
      json.add(util::format("opt/%s/jobs%zu/full/dec_per_s", solver.label, n), full_dps);
      json.add(util::format("opt/%s/jobs%zu/full/evals_per_s", solver.label, n), full_eps);
      json.add(util::format("opt/%s/jobs%zu/win%zu_over_full_ratio", solver.label, n, window_k),
               win_dps / full_dps);
      std::printf("  %6s  %8zu  %14.1f  %14.1f  %8.1fx  %12.0f  %s\n", solver.label, n, win_dps,
                  full_dps, win_dps / full_dps, full_eps, match ? "equal" : "MISMATCH");
    }
  }
  json.save_if(json_path);

  if (!all_match) {
    std::printf("\nFAIL: ProblemView diverged from the Problem oracle - run "
                "test_opt_golden.\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"jobs", "json", "reps", "seed", "unbounded-max", "window"}, run);
}
