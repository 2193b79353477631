#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "opt/model.hpp"
#include "opt/objective.hpp"

namespace reasched::opt {

/// How incremental/cutoff evaluation is wired into a solver. The default is
/// the fast path; `incremental = false` routes every candidate through the
/// untouched `evaluate(decode_subset(...))` pipeline — the pre-change
/// behaviour the golden tests diff against. `cross_check` is the
/// differential-oracle bit (PR 3 pattern): every incremental score is
/// recomputed through the full pipeline and must match bit-for-bit, and
/// every cutoff abort is verified safe against the full score. Tests and
/// `opt:portfolio?xcheck=1` run with it on; production paths leave it off.
struct EvalPolicy {
  bool incremental = true;
  /// Per-candidate differential oracle; throws std::logic_error on any
  /// divergence between the incremental and the full evaluation.
  bool cross_check = false;
};

/// Maps a solver's acceptance predicate onto the early-exit test. An
/// evaluation may be aborted only when the admissible lower bound already
/// proves the solver would discard the candidate:
///   kGreaterEqual  caller uses the score only when score <  cutoff
///   kGreater       caller needs certainty that       score >  cutoff
///   kTolerance     caller accepts only when improves(score, cutoff)
enum class CutoffMode { kGreaterEqual, kGreater, kTolerance };

/// Observability counters for the benches (ablation_solvers reports cutoff
/// hit rates so the speedup is attributable, not just observed).
struct EvalStats {
  std::size_t evaluations = 0;    ///< candidate evaluations (aborted included)
  std::size_t cutoff_hits = 0;    ///< evaluations aborted by the bound
  std::size_t steps_decoded = 0;  ///< placements actually decoded (incl. replay)
  std::size_t steps_reused = 0;   ///< placements reused from the cached prefix
};

/// Incremental objective evaluation over one ProblemView: caches the decoded
/// timeline of the last exactly-scored order and recomputes only from the
/// first position where a candidate diverges, with early exit the moment an
/// admissible bound proves the candidate cannot beat the caller's incumbent.
///
/// Bit-identity. Scores are bit-identical to
/// `evaluate(decode_subset(problem, order), weights)` by construction, not
/// by tolerance: the placement step replicates decode_subset's arithmetic
/// op-for-op (same clock max-chain, same fit test, same lazy release pops
/// with the same co-timed drain), and the release queue is a raw vector
/// driven by std::push_heap/std::pop_heap — exactly what std::priority_queue
/// is specified to do — so even the unspecified pop order of equal-time
/// releases matches. Suffix restart never re-derives state: full snapshots
/// (heap array included) are checkpointed every `stride_` positions during
/// caching decodes, and a candidate replays the few cached-prefix positions
/// between the checkpoint and its divergence point; replaying identical
/// operations from an identical snapshot is bit-identical by construction.
/// The only thing skipped relative to the full pipeline is materializing
/// PlannedSchedule (the per-candidate std::map of start times — the
/// dominant cost of the old path).
///
/// Cutoff soundness. With nonnegative weights every objective accumulator
/// is monotone in the remaining decode, so
///   lb = max(score-so-far, deflated optimistic-completion bound)
/// never exceeds the final score: the optimistic part reuses the admissible
/// critical-path and resource-area arguments of branch_and_bound's
/// lower_bound, anchored at the current clock, and is deflated by
/// kBoundSlack so float rounding in the running area sums cannot push the
/// bound past the true score. Aborting when `lb` already fails the caller's
/// acceptance predicate therefore never changes a solver decision. With any
/// negative weight the monotonicity argument dies and cutoffs are disabled
/// (exact evaluation only).
///
/// Lifetime: borrows the ProblemView; valid while the view is.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const ProblemView& problem, const ObjectiveWeights& weights,
                       EvalPolicy policy = {});

  struct Result {
    double value = 0.0;  ///< exact score, or the admissible lower bound on abort
    bool exact = false;
  };

  static constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

  /// Exact score of `order` (any job-index subset, decode_subset semantics).
  /// Re-caches the decoded trajectory, so subsequent candidates diverge
  /// against this order. Solvers call this for their incumbent.
  double score(const std::vector<std::size_t>& order);

  /// Score with early exit: {score, true} when the decode completed, or
  /// {lower_bound, false} the moment the bound proves the candidate cannot
  /// pass the caller's acceptance test against `cutoff` under `mode`. Does
  /// not re-cache (the incumbent stays the divergence anchor). Bounds are
  /// armed only when `order` is a full permutation of the view's jobs (the
  /// solver candidate case); other sizes decode exactly.
  Result score_with_cutoff(const std::vector<std::size_t>& order, double cutoff,
                           CutoffMode mode);

  /// Score of the cached base order with view job `job_index` inserted at
  /// `pos` (0..base length). Requires a preceding score(base); does not
  /// disturb the cache, so a position sweep reuses the base's prefix
  /// snapshots. Used by OptimizingScheduler's greedy arrival insertion.
  Result score_insertion(std::size_t pos, std::size_t job_index, double cutoff,
                         CutoffMode mode);

  /// Adopts the order evaluated by the most recent score_with_cutoff call as
  /// the new cache anchor, reusing the trajectory that call already decoded
  /// (checkpoints are recorded on the fly). Valid only when that call ran to
  /// completion; otherwise (abort, fast path, naive mode, or an intervening
  /// score/score_insertion call) this is a no-op returning false. Lets a
  /// solver accept a candidate in O(1) instead of re-decoding it via
  /// score().
  bool commit_last();

  /// Continues the decode the most recent score_with_cutoff call aborted and
  /// runs it to completion, returning the exact score. `order` must be the
  /// same sequence that call was given (the evaluator resumes from the abort
  /// snapshot and only decodes the untouched tail - with cross_check on, the
  /// oracle verifies the result against the caller's order). Throws
  /// std::logic_error unless the immediately preceding call was an aborted
  /// score_with_cutoff. Lets SA resolve an inconclusive abort for the cost
  /// of the remaining suffix instead of re-decoding from the divergence.
  Result resume_exact(const std::vector<std::size_t>& order);

  std::size_t base_length() const { return base_.size(); }
  const EvalStats& stats() const { return stats_; }

  /// Objective accumulators of the cached base order (valid after score()
  /// in incremental mode). Branch-and-bound reads the prefix contribution
  /// here instead of re-decoding the placed prefix per node.
  struct Accumulators {
    double makespan;
    double completion;
    double wait;
  };
  Accumulators cached_accumulators() const {
    return {final_.makespan, final_.completion, final_.wait};
  }

 private:
  /// Release-heap element. Only `time` drives the heap order; the resources
  /// freed are looked up in attr_ on pop (pinned allocations get synthetic
  /// attr_ slots after the real jobs). 16 bytes instead of 24 shrinks the
  /// sift traffic of the per-placement push/pop pair and halves-ish every
  /// checkpoint heap copy. The heap arrangement depends only on comparator
  /// outcomes, so slimming the payload cannot perturb equal-time pop order.
  struct Release {
    double time;
    std::uint32_t idx;  ///< attr_ index of the job (or pinned slot) releasing
  };
  struct LaterRelease {
    bool operator()(const Release& a, const Release& b) const { return a.time > b.time; }
  };
  /// Live decode state: decode_subset's scalars plus the running aggregates
  /// the lower bound needs (placed areas, critical-path max).
  struct State {
    double clock;
    int free_nodes;
    double free_memory;
    double makespan;
    double completion;
    double wait;
    double placed_node_area;
    double placed_mem_area;
    double placed_duration;
    double placed_cp;  ///< running max of completion_lb over placed jobs
  };
  struct Checkpoint {
    State state;
    std::vector<Release> heap;  ///< verbatim heap array at this position
  };
  /// Order-independent totals of a candidate's full job set, for the
  /// remaining-work terms of the bound.
  struct Totals {
    double node_area;
    double mem_area;
    double duration_sum;
    double cp;  ///< max over the set of max(now, submit) + duration
    std::size_t count;
  };

  /// Per-job attributes packed into one cache line: place() touches every
  /// field of exactly one entry per placement, and candidate orders visit
  /// jobs in effectively random sequence, so a struct-of-arrays layout would
  /// cost seven cache misses per placement where this costs one.
  struct alignas(64) Attr {
    double release;  ///< the exact std::max(now, submit_time) of decode_subset
    double duration;
    double memory_gb;
    double node_area;
    double mem_area;
    double completion_lb;
    int nodes;
  };

  void place(State& s, std::size_t job_index);
  double exact_score(const State& s) const;
  double lower_bound(const State& s, const Totals& totals, std::size_t placed) const;
  static bool cuts(double lb, double cutoff, CutoffMode mode);
  std::size_t divergence(const std::vector<std::size_t>& order) const;
  /// Loads checkpoint `index` into `s`/heap_ and returns its position.
  std::size_t load_checkpoint(std::size_t index, State& s);
  void record_checkpoint(std::size_t index, const State& s);
  void record_pending(std::size_t index, const State& s);
  /// Completes the pending trajectory of an exactly scored candidate whose
  /// decode diverged from the base at `d`, so commit_last() can adopt it.
  void finish_pending(const std::vector<std::size_t>& order, std::size_t d, const State& s,
                      double score);
  double full_oracle(const std::vector<std::size_t>& order) const;
  void check_exact(const std::vector<std::size_t>& order, double got) const;
  void check_abort(const std::vector<std::size_t>& order, double lb, double cutoff,
                   CutoffMode mode) const;
  std::vector<std::size_t> materialize_insertion(std::size_t pos, std::size_t job_index) const;

  const ProblemView* problem_;
  ObjectiveWeights weights_;
  EvalPolicy policy_;
  bool cutoff_ok_;  ///< all weights nonnegative, so bounds are admissible

  double now_;
  int total_nodes_;
  double total_memory_;
  /// Reciprocals for the bound's area terms: a multiply instead of a divide
  /// per placement. The bound value shifts by ~1 ulp relative to the
  /// division, which kBoundSlack's 1e-10 deflation absorbs with eight
  /// orders of magnitude to spare - admissibility is unaffected.
  double inv_total_nodes_ = 0.0;
  double inv_total_memory_ = 0.0;
  /// Per-job attributes resolved once, then one synthetic slot per pinned
  /// allocation (nodes/memory only) so heap pops can resolve any Release.
  std::vector<Attr> attr_;
  Totals all_;  ///< totals over the whole view job set (full permutations)

  /// Cached trajectory of the last exactly-scored order: checkpoints at
  /// positions 0, stride_, 2*stride_, ... plus the final state and score.
  std::vector<std::size_t> base_;
  std::vector<Checkpoint> checkpoints_;
  std::size_t n_checkpoints_ = 0;  ///< valid prefix of checkpoints_
  std::size_t stride_;
  State final_;
  double cached_score_ = 0.0;

  /// Trajectory of the last completed score_with_cutoff call, promotable by
  /// commit_last() without re-decoding. Checkpoint indices below
  /// pending_first_ck_ are shared with the cached base (identical prefix).
  std::vector<std::size_t> pending_base_;
  std::vector<Checkpoint> pending_checkpoints_;
  std::size_t pending_first_ck_ = 0;
  std::size_t pending_n_checkpoints_ = 0;
  State pending_final_;
  double pending_score_ = 0.0;
  bool pending_valid_ = false;

  /// Snapshot taken when score_with_cutoff aborts, from which resume_exact
  /// decodes the remaining tail. heap_ itself is the live heap at the abort
  /// and is left untouched until the next evaluation call.
  State resume_state_;
  std::size_t resume_pos_ = 0;  ///< next position to place on resume
  std::size_t resume_d_ = 0;    ///< divergence point of the aborted call
  bool resume_valid_ = false;

  std::vector<Release> heap_;  ///< reusable live heap (scratch)
  EvalStats stats_;
};

}  // namespace reasched::opt
