#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/job.hpp"
#include "sim/views.hpp"

namespace reasched::sim {

/// Per-subtree minima over the waiting set, the pruning currency of
/// JobTable's backfill segment tree. Empty subtrees carry the max sentinels
/// below, so any `min_* <= cap` pruning test fails for them and pruning
/// predicates never need an explicit emptiness check.
struct WaitingAggregate {
  int min_nodes = std::numeric_limits<int>::max();
  double min_memory_gb = std::numeric_limits<double>::infinity();
  double min_walltime = std::numeric_limits<double>::infinity();
};

/// Indexed per-run job state for the engine: a contiguous job arena keyed by
/// dense index, an ordered waiting index, and reverse-dependency adjacency
/// with remaining-count counters.
///
/// This replaces the seed representation (std::map<JobId, Job> plus
/// sorted-vector `waiting` that was fully re-sorted after every event and
/// erased by linear scan on every start) with per-transition costs of an
/// O(log n) position search plus an O(n_waiting) shift of 4-byte indices
/// (a memmove, vs the seed's O(n log n) re-sort of whole Job objects) and
/// O(out-degree) dependency promotion, so a run over 10^5 jobs no longer
/// pays O(n) Job copies and comparisons per decision just for bookkeeping.
///
/// On top of the engine-facing state, the table maintains two policy-facing
/// incremental indexes so scheduler decide() calls stop scanning the queue:
///
///  - a walltime-ordered waiting index (sjf_order): shortest_waiting() is
///    O(1) where SJF's min_element scan was O(n_waiting);
///  - a segment tree over the static arrival-rank permutation with
///    WaitingAggregate minima per subtree: first_waiting_after_head() finds
///    the first backfill candidate in queue order by aggregate-pruned
///    descent - typically O(log n) against EASY's former O(n_waiting) scan.
///
/// Both are maintained inside insert_waiting()/erase_waiting(), the single
/// choke point every waiting-set transition (arrive, promote, start) goes
/// through, so they can never drift from the primary waiting index.
///
/// The arena is immutable after build(): Job storage is contiguous and
/// stable, which is what lets DecisionContext hand out zero-copy views.
class JobTable {
 public:
  /// Load the arena from `jobs` (ids must be unique and dependency
  /// references valid - the engine validates before building). Resets all
  /// lifecycle state.
  void build(const std::vector<Job>& jobs);

  /// Online admit: append one job to the arena. The job must be last in
  /// arrival order, i.e. arrival_order(existing, job) for every job already
  /// in the table - the service layer guarantees this with monotone ids and
  /// a submit-time watermark - so the static arrival-rank permutation stays
  /// an append and the backfill segment tree only ever grows at the end
  /// (doubling + O(n_waiting log n) rebuild when the leaf capacity is
  /// exceeded, amortized O(log n) per admit). Dependencies must reference
  /// known, non-cancelled jobs. Throws std::invalid_argument on violations.
  void add_job(const Job& job);

  /// Online cancel: withdraw `id` and, transitively, every dependent that
  /// can no longer run. Legal only while `id` has not started; returns the
  /// cancelled ids in cancellation (BFS) order, or an empty vector when the
  /// job is running/completed/already cancelled (nothing changes). Pending
  /// jobs stay in the arena as kCancelled; their queued arrival events must
  /// be tombstoned by the caller (the engine skips arrivals for cancelled
  /// ids).
  std::vector<JobId> cancel(JobId id);

  std::size_t size() const { return jobs_.size(); }
  std::size_t n_waiting() const { return waiting_.size(); }
  std::size_t n_ineligible() const { return ineligible_.size(); }

  /// Is `id` known to the table (any lifecycle state, including cancelled)?
  bool contains(JobId id) const { return id_to_index_.count(id) != 0; }

  const Job& job(JobId id) const { return jobs_[index_of(id)]; }
  JobState state(JobId id) const { return meta_[index_of(id)].state; }

  /// Arrival event fired: the job enters the waiting index when its
  /// dependencies are already satisfied, the blocked list otherwise.
  void arrive(JobId id);

  /// A waiting job was started: remove it from the waiting index.
  void start(JobId id);

  /// Completion event fired: mark completed and decrement each dependent's
  /// remaining-dependency counter, promoting arrived dependents whose last
  /// dependency this was. O(out-degree) amortized - no scan over all jobs.
  void complete(JobId id);

  void mark_killed(JobId id) { meta_[index_of(id)].killed = true; }
  bool killed(JobId id) const { return meta_[index_of(id)].killed; }

  /// O(1) lookups backing DecisionContext/ConstraintChecker queries.
  const Job* find_waiting(JobId id) const;
  const Job* find_ineligible(JobId id) const;

  /// The waiting job that is first in sjf_order (walltime, then arrival),
  /// or nullptr when nothing waits. O(1) - front of the walltime index.
  const Job* shortest_waiting() const {
    return waiting_by_walltime_.empty() ? nullptr : &jobs_[waiting_by_walltime_.front()];
  }

  /// The first waiting job *after* the queue head (in arrival order) for
  /// which `leaf(job)` holds - what a backfilling policy scans for. `prune`
  /// is consulted with the WaitingAggregate of each candidate subtree and
  /// must be *necessary*: it may return false only when no job in the
  /// subtree can satisfy `leaf` (per-field minima make single-field `<=`
  /// caps safe to test). Descent visits O(log n) nodes per accepted or
  /// pruned branch; with a sound prune the common case is O(log n) overall,
  /// and the result is exactly what a left-to-right scan applying `leaf`
  /// would return. Returns nullptr when no candidate matches.
  template <typename LeafPred, typename PrunePred>
  const Job* first_waiting_after_head(LeafPred&& leaf, PrunePred&& prune) const {
    if (waiting_.size() < 2) return nullptr;
    const std::uint32_t head_rank = rank_of_[waiting_.front()];
    return descend(1, 0, tree_leaves_, head_rank, leaf, prune);
  }

  /// Zero-copy view of eligible jobs in arrival order (submit_time, id).
  ListView<Job> waiting_view() const {
    return {jobs_.data(), waiting_.data(), waiting_.size()};
  }
  /// Zero-copy view of arrived-but-blocked jobs, in arrival-event order
  /// (matches the seed's std::vector push_back order).
  ListView<Job> ineligible_view() const {
    return {jobs_.data(), ineligible_.data(), ineligible_.size()};
  }

  /// The full job arena in build/admit order (deterministic, not id-sorted).
  /// Snapshot digests and service queries iterate this.
  const std::vector<Job>& arena() const { return jobs_; }

 private:
  struct Meta {
    JobState state = JobState::kPending;
    std::uint32_t remaining_deps = 0;
    bool killed = false;
    /// Dense indices of jobs that depend on this one (reverse adjacency).
    std::vector<std::uint32_t> dependents;
  };

  std::uint32_t index_of(JobId id) const;
  void insert_waiting(std::uint32_t idx);
  void erase_waiting(std::uint32_t idx);
  void insert_ineligible(std::uint32_t idx);
  void promote(std::uint32_t idx);
  /// Write `agg` into the segment-tree leaf for arrival rank `rank` and
  /// recombine ancestors. O(log n).
  void tree_update(std::uint32_t rank, const WaitingAggregate& agg);

  template <typename LeafPred, typename PrunePred>
  const Job* descend(std::size_t node, std::uint32_t lo, std::uint32_t hi,
                     std::uint32_t after_rank, LeafPred& leaf, PrunePred& prune) const {
    if (hi <= after_rank + 1) return nullptr;  // whole range at or before head
    const WaitingAggregate& agg = tree_[node];
    if (agg.min_nodes == std::numeric_limits<int>::max()) return nullptr;  // empty
    if (!prune(agg)) return nullptr;
    if (hi - lo == 1) {
      const Job& j = jobs_[rank_to_index_[lo]];
      return leaf(j) ? &j : nullptr;
    }
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (const Job* hit = descend(2 * node, lo, mid, after_rank, leaf, prune)) return hit;
    return descend(2 * node + 1, mid, hi, after_rank, leaf, prune);
  }

  std::vector<Job> jobs_;   ///< arena, dense-index keyed, stable after build
  std::vector<Meta> meta_;  ///< parallel to jobs_
  std::vector<std::uint32_t> waiting_;     ///< sorted by arrival_order
  /// Arrived-but-blocked jobs, sorted by event_rank_of_ - which is exactly
  /// arrival-event (push_back) order for engine-driven arrivals, so the
  /// observable view order matches the seed while promote() can locate an
  /// entry by binary search (O(log |blocked|)) instead of the seed's
  /// std::find scan, which made DAG-heavy promotion storms O(|blocked|^2).
  std::vector<std::uint32_t> ineligible_;
  std::unordered_map<JobId, std::uint32_t> id_to_index_;
  /// Dense index -> rank in the static (submit_time, build position) total
  /// order - the order arrival events fire in (EventQueue pops by time,
  /// then by push sequence, and arrivals are pushed in build order).
  std::vector<std::uint32_t> event_rank_of_;

  /// Policy-facing indexes (see class comment).
  std::vector<std::uint32_t> waiting_by_walltime_;  ///< sorted by sjf_order
  std::vector<std::uint32_t> rank_of_;        ///< dense index -> arrival rank
  std::vector<std::uint32_t> rank_to_index_;  ///< arrival rank -> dense index
  std::vector<WaitingAggregate> tree_;        ///< 1-based heap layout
  std::uint32_t tree_leaves_ = 0;             ///< leaf count (power of two)
};

}  // namespace reasched::sim
