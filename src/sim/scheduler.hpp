#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "sim/job_table.hpp"
#include "sim/schedule_result.hpp"
#include "sim/views.hpp"

namespace reasched::sim {

using JobListView = ListView<Job>;
using CompletedListView = ListView<CompletedJob>;

/// Everything a scheduling policy may observe at a decision point. This is
/// the structured form of the paper's prompt state (system capacity, current
/// time, available resources, running / completed / waiting jobs).
///
/// All job/allocation lists are zero-copy views over the engine's indexed
/// state (ListView supports iteration, indexing and the usual algorithms);
/// building a context is O(1) and nothing is materialized per decision.
/// Views are valid only for the duration of the scheduler callback -
/// schedulers that keep state across calls must copy what they keep.
struct DecisionContext {
  double now = 0.0;
  const ClusterState& cluster;
  /// Jobs submitted, eligible (dependencies met) and not yet started,
  /// in arrival order.
  JobListView waiting;
  /// Submitted but ineligible jobs (unmet dependencies); shown separately
  /// so the prompt can explain why they cannot run.
  JobListView ineligible;
  /// Running allocations in end-time order (soonest first).
  AllocationListView running;
  CompletedListView completed;
  /// True while future arrival events exist - Stop is illegal until false.
  bool arrivals_pending = false;
  /// Optional O(1) lookup backdoor set by the engine; when null (ad-hoc
  /// contexts built by tests), the find_* helpers fall back to a linear
  /// scan over the views.
  const JobTable* jobs_index = nullptr;

  /// The waiting job with this id, or nullptr. O(1) when engine-built.
  const Job* find_waiting(JobId id) const;
  /// The arrived-but-dependency-blocked job with this id, or nullptr.
  const Job* find_ineligible(JobId id) const;

  /// The waiting job that is first in sjf_order (walltime, then arrival
  /// order), or nullptr when nothing waits. O(1) through the engine's
  /// walltime-ordered waiting index; ad-hoc contexts fall back to a linear
  /// min_element scan with identical semantics (sjf_order is total, so the
  /// minimum is unique).
  const Job* shortest_waiting() const;

  /// The first waiting job after the queue head (in arrival order)
  /// satisfying `leaf(job)` - the backfill-candidate search. Engine-built
  /// contexts answer through the JobTable's arrival-rank segment tree,
  /// pruning subtrees for which `prune(aggregate)` is false; `prune` must be
  /// necessary (never false for a subtree containing a satisfying job - the
  /// aggregate carries per-field minima, so independent `min_* <= cap`
  /// tests are safe). Ad-hoc contexts fall back to the linear scan `leaf`
  /// alone defines. Either path returns exactly what a left-to-right scan
  /// over `waiting[1..]` applying `leaf` would, or nullptr.
  template <typename LeafPred, typename PrunePred>
  const Job* first_waiting_after_head(LeafPred&& leaf, PrunePred&& prune) const {
    if (jobs_index != nullptr) {
      return jobs_index->first_waiting_after_head(leaf, prune);
    }
    for (std::size_t i = 1; i < waiting.size(); ++i) {
      if (leaf(waiting[i])) return &waiting[i];
    }
    return nullptr;
  }
};

/// Common interface implemented by every method the paper compares:
/// FCFS, SJF, EASY backfilling, the OR-Tools-like optimizer, and the
/// ReAct LLM agent. The engine owns the decision loop; schedulers only
/// answer "what single action now?".
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Propose exactly one action for the current state.
  virtual Action decide(const DecisionContext& ctx) = 0;

  /// Natural-language feedback after the engine rejected the last action
  /// (paper Section 2.4). Baselines ignore it; the ReAct agent appends it
  /// to its scratchpad.
  virtual void on_feedback(const std::string& feedback, const DecisionContext& ctx);

  /// Notification that an action was accepted (lets planners advance).
  virtual void on_accepted(const Action& action, const DecisionContext& ctx);

  /// Free-form reasoning behind the most recent decide(); empty for
  /// non-reasoning schedulers. Recorded into DecisionRecord::thought.
  virtual std::string last_thought() const;

  /// Stable display name ("FCFS", "Claude 3.7", ...).
  virtual std::string name() const = 0;

  /// Observe-only telemetry counters ("opt/evaluations", "llm/calls", ...),
  /// sampled into decision spans and live stats snapshots. The engine calls
  /// this off the per-decision hot path (sampled spans, explicit stats
  /// requests), never to make a decision; implementations must not mutate
  /// state. Default: no counters.
  virtual std::vector<std::pair<std::string, double>> obs_counters() const;

  /// Reset all internal state so the instance can run a fresh simulation.
  virtual void reset();
};

}  // namespace reasched::sim
