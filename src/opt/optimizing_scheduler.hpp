#pragma once

#include <cstdint>
#include <vector>

#include "opt/branch_and_bound.hpp"
#include "opt/incremental.hpp"
#include "opt/objective.hpp"
#include "opt/simulated_annealing.hpp"
#include "sim/planning_window.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace reasched::opt {

/// Queue sizes up to this are planned exactly by branch-and-bound; larger
/// queues fall back to seeds + local search + simulated annealing.
inline constexpr std::size_t kBnbThreshold = 9;

struct OptimizingSchedulerConfig {
  ObjectiveWeights weights;
  SaConfig sa;
  std::size_t local_search_evals = 3000;
  std::uint64_t seed = 1;
  /// Planning window bounding how many waiting jobs each plan considers
  /// (top_k = 0 reproduces the paper's all-jobs semantics exactly). Jobs
  /// outside the window are invisible to the plan until they enter it -
  /// the fixed-size-observation trade the related RL schedulers make.
  sim::PlanningWindow window;
};

/// The OR-Tools stand-in (see ARCHITECTURE.md "Substitutions"): computes
/// near-optimal offline schedules for the currently known queue and executes
/// them as a priority order through the simulator, re-planning as jobs
/// arrive. Like the paper's OR-Tools baseline it optimizes makespan/packing
/// with no fairness term, which yields the paper's signature behaviour:
/// highest utilization and throughput, degraded wait-time fairness.
class OptimizingScheduler final : public sim::Scheduler {
 public:
  explicit OptimizingScheduler(OptimizingSchedulerConfig config = {});

  sim::Action decide(const sim::DecisionContext& ctx) override;
  std::string name() const override { return "OR-Tools*"; }
  std::string last_thought() const override { return last_thought_; }
  void reset() override;

  /// Number of full plan computations performed (observability for tests).
  std::size_t replans() const { return replans_; }

  /// Lifetime solver counters (replans, incremental-evaluation totals, BnB
  /// nodes), sampled into decision spans and stats snapshots.
  std::vector<std::pair<std::string, double>> obs_counters() const override;

 private:
  void full_replan(const ProblemView& problem);
  void insert_new_jobs(const ProblemView& problem);
  void accumulate_eval(const EvalStats& stats);

  OptimizingSchedulerConfig config_;
  util::Rng rng_;
  /// Priority order over job ids; execution starts the first fitting job.
  std::vector<sim::JobId> priority_;
  /// Reused window-position scratch (avoids a per-decision allocation).
  std::vector<std::uint32_t> window_scratch_;
  std::size_t insertions_since_reopt_ = 0;
  std::size_t replans_ = 0;
  /// Observe-only lifetime totals across every evaluator/solver the
  /// portfolio ran; never read back into planning.
  EvalStats eval_totals_;
  std::size_t bnb_nodes_ = 0;
  std::string last_thought_;
};

}  // namespace reasched::opt
