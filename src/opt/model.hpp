#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "sim/scheduler.hpp"

namespace reasched::opt {

/// Offline scheduling problem snapshot handed to the solvers: the waiting
/// jobs, the cluster capacities, the current time, and the resources pinned
/// by already-running jobs (which release at known end times).
///
/// This is the *copying* representation: from_context materializes the whole
/// waiting queue and running set per decision. The solvers themselves run on
/// ProblemView below; Problem survives as the differential oracle
/// (tests/test_opt_golden.cpp proves the zero-copy path decides bit-
/// identically) and as the owning container for ad-hoc instances in tests
/// and benches.
struct Problem {
  double now = 0.0;
  int total_nodes = 0;
  double total_memory_gb = 0.0;
  std::vector<sim::Job> jobs;
  /// (end_time, nodes, memory) triples of running allocations.
  struct Pinned {
    double end_time;
    int nodes;
    double memory_gb;
  };
  std::vector<Pinned> pinned;

  static Problem from_context(const sim::DecisionContext& ctx);
};

/// Zero-copy problem the solvers actually run on: borrows the engine's
/// indexed views (DecisionContext::waiting / ::running) instead of copying
/// them, optionally through a planning-window index that restricts the job
/// set to the selected queue positions. Building a view is O(1); nothing is
/// materialized per decision.
///
/// Lifetime contract (same as the underlying ListViews): a view is valid
/// only while the DecisionContext - or the Problem it adapts - is alive and
/// unmodified, i.e. within one scheduler callback. The optional window index
/// array must outlive the view as well; ProblemView does not copy it.
class ProblemView {
 public:
  ProblemView() = default;

  /// Adapter over a copying Problem (oracle and ad-hoc instances). Borrows
  /// problem's vectors; the Problem must outlive the view.
  explicit ProblemView(const Problem& problem)
      : now_(problem.now),
        total_nodes_(problem.total_nodes),
        total_memory_gb_(problem.total_memory_gb),
        jobs_(problem.jobs),
        pinned_(problem.pinned.data()),
        n_pinned_(problem.pinned.size()) {}

  /// Zero-copy view over a decision point. `window` - ascending queue
  /// positions as produced by sim::PlanningWindow::select - restricts the
  /// job set when non-null; null means all waiting jobs.
  static ProblemView from_context(const sim::DecisionContext& ctx,
                                  const std::vector<std::uint32_t>* window = nullptr);

  double now() const { return now_; }
  int total_nodes() const { return total_nodes_; }
  double total_memory_gb() const { return total_memory_gb_; }

  std::size_t n_jobs() const { return window_ != nullptr ? n_window_ : jobs_.size(); }
  const sim::Job& job(std::size_t i) const {
    return window_ != nullptr ? jobs_[window_[i]] : jobs_[i];
  }

  std::size_t n_pinned() const { return pinned_ != nullptr ? n_pinned_ : running_.size(); }
  Problem::Pinned pinned(std::size_t i) const {
    if (pinned_ != nullptr) return pinned_[i];
    const sim::Allocation& alloc = running_[i];
    return {alloc.end_time, alloc.job.nodes, alloc.job.memory_gb};
  }

 private:
  double now_ = 0.0;
  int total_nodes_ = 0;
  double total_memory_gb_ = 0.0;
  sim::JobListView jobs_;
  const std::uint32_t* window_ = nullptr;  ///< positions into jobs_, ascending
  std::size_t n_window_ = 0;
  const Problem::Pinned* pinned_ = nullptr;  ///< adapter mode storage
  std::size_t n_pinned_ = 0;
  sim::AllocationListView running_;  ///< context mode storage
};

/// Solver output: a start time per job id plus the realized makespan and
/// the permutation that produced it.
struct PlannedSchedule {
  std::map<sim::JobId, double> start_times;
  std::vector<sim::JobId> order;
  double makespan = 0.0;    ///< completion of the last planned job
  double total_wait = 0.0;  ///< sum of (start - release)

  bool contains(sim::JobId id) const { return start_times.count(id) != 0; }
};

}  // namespace reasched::opt
