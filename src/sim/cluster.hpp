#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/job.hpp"
#include "sim/views.hpp"

namespace reasched::sim {

/// Static description of the simulated cluster partition.
/// The paper's main experiments use 256 nodes / 2048 GB (Section 3.1);
/// the Polaris trace experiments use 560 nodes x 512 GB/node (Section 5).
struct ClusterSpec {
  int total_nodes = 256;
  double total_memory_gb = 2048.0;
  /// Extension (energy-aware scheduling, paper Section 6): nominal draw of
  /// one busy node, used by metrics::energy_kwh.
  double watts_per_busy_node = 350.0;
  double watts_per_idle_node = 90.0;

  static ClusterSpec paper_default() { return {}; }
  static ClusterSpec polaris() {
    ClusterSpec s;
    s.total_nodes = 560;
    s.total_memory_gb = 560.0 * 512.0;
    return s;
  }
};

/// One running job's claim on the cluster.
struct Allocation {
  Job job;
  double start_time = 0.0;
  double end_time = 0.0;
};

using AllocationListView = ListView<Allocation>;

/// Result of ClusterState::earliest_fit - the projected moment a resource
/// request can be satisfied if nothing new starts, plus what remains free
/// once it does. This is exactly the "shadow" a backfilling policy reserves
/// for its head-of-queue job.
struct FitProjection {
  double time = 0.0;           ///< earliest time the request fits (now if immediately)
  int spare_nodes = 0;         ///< nodes left over at `time` after the request
  double spare_memory_gb = 0.0;  ///< memory left over at `time` (negative if the
                                 ///< request exceeds even the fully drained cluster)
};

/// Mutable resource ledger: which jobs hold nodes/memory right now.
/// Enforces the two capacity constraints of Section 3.3
///   sum nodes(active) <= N_total,  sum mem(active) <= M_total
/// by construction - allocate() throws if either would be violated, so any
/// scheduler bug is caught at the source.
///
/// Storage is a flat slot arena (freed slots are reused) with two indexes:
/// a JobId -> slot hash map for O(1) membership/release lookups and an
/// end-time-ordered index maintained incrementally on allocate/release
/// (O(log n_running) search plus an index-array shift), so running_view()
/// is zero-copy and O(1) per decision instead of the seed's copy-and-sort
/// of every allocation on every scheduler query.
class ClusterState {
 public:
  explicit ClusterState(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  int available_nodes() const { return available_nodes_; }
  double available_memory_gb() const { return available_memory_gb_; }

  /// Can `job` run right now? (first-fit feasibility test).
  bool fits(const Job& job) const;

  /// Raw-demand form of fits(), identical comparison semantics. Lets index
  /// pruning test a subtree's per-field minima against availability without
  /// materializing a Job.
  bool fits(int nodes, double memory_gb) const;

  /// Would `job` ever fit on an empty cluster? Jobs violating this are
  /// unschedulable and rejected at submission.
  bool fits_empty(const Job& job) const;

  /// Compatibility alias; allocations live at namespace scope now.
  using Allocation = sim::Allocation;

  /// Claim resources for `job` from `start` to `start + job.duration`.
  /// Throws std::logic_error when capacity would be exceeded or the job id
  /// is already running.
  void allocate(const Job& job, double start);

  /// Release a completed job's resources; returns its allocation record.
  /// Throws std::logic_error for unknown ids.
  sim::Allocation release(JobId id);

  bool is_running(JobId id) const { return slot_of_.count(id) != 0; }
  std::size_t running_count() const { return slot_of_.size(); }

  /// Zero-copy view of running allocations in end-time order (soonest
  /// first, ties by job id) - what a backfilling scheduler needs to compute
  /// shadow windows. Valid until the next allocate()/release().
  AllocationListView running_view() const {
    return {slots_.data(), by_end_.data(), by_end_.size()};
  }

  /// Copying form of running_view(), kept for callers that need ownership
  /// (test fixtures, offline snapshots).
  std::vector<sim::Allocation> running_by_end_time() const;

  /// Earliest time a (nodes, memory_gb) request can be satisfied, assuming
  /// running jobs release their resources at their recorded end times and
  /// nothing else starts - i.e. the smallest prefix of the end-time index
  /// whose cumulative release, on top of what is free now, covers the
  /// request. O(log n_running): two std::partition_point searches over the
  /// incrementally maintained prefix aggregates (both cumulative release
  /// curves are non-decreasing, so each threshold crossing is a
  /// partition point). Replaces the seed policy's per-query walk that
  /// re-accumulated every running allocation.
  ///
  /// When the request fits immediately, `time` is `now` and the spares are
  /// against current availability. When it cannot fit even after everything
  /// drains (request beyond total capacity - hand-built states only, the
  /// engine rejects such jobs at submission), `time` is the last end time
  /// and the spares go negative, matching the exhausted walk of the seed.
  FitProjection earliest_fit(int nodes, double memory_gb, double now) const;

  /// Internal-consistency check (sums match capacities); used by tests and
  /// debug assertions.
  bool invariants_hold() const;

 private:
  /// Position of `slot` in by_end_ (exact key search; throws if absent).
  std::size_t end_index_position(std::uint32_t slot) const;

  /// Recompute the prefix aggregates from position `from` to the end, after
  /// an insert or erase at `from`. Left-to-right accumulation keeps the
  /// sums deterministic; cost is O(n_running - from), and n_running is
  /// bounded by cluster capacity (every job holds >= 1 node), so the
  /// maintenance cost is independent of experiment size.
  void rebuild_release_prefix(std::size_t from);

  ClusterSpec spec_;
  int available_nodes_;
  double available_memory_gb_;
  std::vector<sim::Allocation> slots_;     ///< flat ledger; freed slots reused
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> by_end_;      ///< slots ordered by (end_time, id)
  std::unordered_map<JobId, std::uint32_t> slot_of_;
  /// Prefix aggregates parallel to by_end_: cum_release_*_[i] is the total
  /// nodes/memory released by allocations by_end_[0..i]. Maintained on every
  /// allocate/release; earliest_fit() binary-searches them.
  std::vector<int> cum_release_nodes_;
  std::vector<double> cum_release_memory_;
};

}  // namespace reasched::sim
