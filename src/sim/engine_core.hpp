#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/constraint_checker.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/job_table.hpp"
#include "sim/schedule_result.hpp"
#include "sim/scheduler.hpp"

namespace reasched::sim {

/// Validate a batch of jobs against `cluster`: well-formedness, unique ids,
/// per-job capacity feasibility and dependency acyclicity. Throws
/// std::invalid_argument naming the first offender. This is the check
/// Engine::run performs before building its state; the service layer runs it
/// on replayed traces and a per-job subset of it on live submissions.
void validate_jobs(const std::vector<Job>& jobs, const ClusterSpec& cluster);

/// The engine's event loop as a steppable state machine - the refactor that
/// turns the batch simulator into something a long-running service can
/// drive. One `step()` processes exactly one event *time*: pop every event
/// in the current batch (completions before arrivals), then run the
/// decision phase (query/execute loop plus livelock escapes) at that time.
/// `Engine::run` is now a thin loop over this class, and
/// `service::ServiceEngine` drives the same core online, so the two modes
/// cannot drift: a batch run and a service replay of the same trace execute
/// the identical per-step code.
///
/// Online extensions on top of the batch semantics:
///  - `admit()` appends a job mid-run (arrival-order append; see
///    JobTable::add_job) and queues its arrival event;
///  - `cancel()` withdraws a not-yet-started job (cascading to dependents)
///    and tombstones queued arrival events of cancelled jobs;
///  - `set_more_arrivals_hint()` tells the decision phase that a live
///    arrival source may still produce work, which keeps Stop illegal,
///    suppresses the terminal-state query even when the event queue has no
///    pending arrivals, and disables the livelock emergency starts (an empty
///    event queue is not a livelock when the service will feed more events).
///
/// None of these are reachable from `Engine::run`, which preserves the
/// paper-mode batch behaviour bit-for-bit (pinned by the golden tests).
class EngineCore {
 public:
  EngineCore(const EngineConfig& config, Scheduler& scheduler);

  /// Batch seeding: build the table from `jobs` and queue every arrival.
  /// Call at most once, before any step; inputs must already be validated
  /// (validate_jobs). Resets the scheduler.
  void load(const std::vector<Job>& jobs);

  /// Online admit of one job. Validates the job against the cluster and the
  /// current table (known non-cancelled dependencies, arrival-order append)
  /// and queues its arrival event. Must not be called from inside a
  /// scheduler callback (the table append may reallocate the arena views).
  void admit(const Job& job);

  /// Online cancel: withdraw `id` plus transitive dependents if it has not
  /// started. Returns the cancelled ids in cascade order (empty when the job
  /// is running/completed/already cancelled). Queued arrival events of
  /// cancelled jobs are skipped when their time comes.
  std::vector<JobId> cancel(JobId id);

  /// Process the next event time (events + decision phase + livelock
  /// escapes). Returns false - without querying the scheduler - when no
  /// events remain.
  bool step();

  bool has_events() const { return !events_.empty(); }
  double next_event_time() const { return events_.next_time(); }
  /// Clock of the last processed step (0 before the first step).
  double now() const { return now_; }
  /// Completed steps since construction.
  std::uint64_t steps() const { return steps_; }
  bool stopped() const { return stopped_; }

  void set_more_arrivals_hint(bool hint) { more_arrivals_hint_ = hint; }

  const JobTable& table() const { return table_; }
  const ClusterState& cluster() const { return cluster_; }
  const EventQueue& events() const { return events_; }
  const ScheduleResult& result() const { return result_; }

  /// Finish a drained run: assert nothing schedulable was left behind, sort
  /// completed records by job id (the batch contract) and move the result
  /// out. The core is spent afterwards.
  ScheduleResult finish();

 private:
  DecisionContext context(double event_time) const;
  void process_events_at(double event_time);
  void decision_phase(double event_time);
  void execute_start(double event_time, const Job& job, bool backfill);
  void emergency_start(double event_time);

  EngineConfig config_;
  ConstraintChecker checker_;
  Scheduler* scheduler_;
  ClusterState cluster_;
  EventQueue events_;
  JobTable table_;
  ScheduleResult result_;
  /// Ids whose queued arrival events must be skipped (cancelled while
  /// pending). Ordered set: deterministic and iteration-safe under the
  /// unordered-container lint rule.
  std::set<JobId> arrival_tombstones_;
  double now_ = 0.0;
  std::uint64_t steps_ = 0;
  bool stopped_ = false;
  bool more_arrivals_hint_ = false;
  /// Serial counters for 1-in-obs::kSampleEvery span sampling: two
  /// wall-clock reads plus a recorder copy are too expensive for every step
  /// on a ~550ns step budget.
  std::uint64_t obs_step_serial_ = 0;
  std::uint64_t obs_decision_serial_ = 0;
};

}  // namespace reasched::sim
