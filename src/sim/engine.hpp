#pragma once

#include <vector>

#include "sim/cluster.hpp"
#include "sim/constraint_checker.hpp"
#include "sim/event_queue.hpp"
#include "sim/job_table.hpp"
#include "sim/schedule_result.hpp"
#include "sim/scheduler.hpp"

namespace reasched::sim {

/// Engine knobs. Defaults reproduce the paper's setup; the
/// `ablation_agent_components` row of bench/repro flips `feedback_enabled`
/// to probe the value of natural-language feedback (Section 2.4).
struct EngineConfig {
  ClusterSpec cluster = ClusterSpec::paper_default();
  /// Consecutive invalid actions tolerated at one decision point before the
  /// engine forces a Delay (keeps a confused agent from livelocking).
  int max_invalid_retries = 4;
  /// When false, rejected actions produce no explanation - the scheduler is
  /// simply re-queried. Models removing the paper's feedback channel.
  bool feedback_enabled = true;
  /// Record thoughts/feedback strings into DecisionRecords (disable for
  /// large benches to save memory).
  bool record_traces = true;
  /// Production-HPC semantics extension: kill jobs that exceed their
  /// requested walltime (the paper's setup never triggers this because its
  /// generators use exact estimates; real traces underestimate sometimes).
  bool enforce_walltime = false;
};

/// The paper's discrete-event HPC simulator (Section 3.1):
///
///  - maintains the global simulation clock, advancing only at job arrivals
///    and completions;
///  - injects newly arrived jobs into the waiting queue and releases the
///    resources of finished jobs;
///  - queries the scheduler whenever jobs are ready, executing valid actions
///    and rejecting invalid ones with natural-language feedback;
///  - runs jobs non-preemptively until all complete.
///
/// The engine owns constraint enforcement, so scheduling policies - LLM or
/// heuristic - cannot corrupt cluster state even when buggy.
///
/// Per-run state is fully indexed (JobTable arena + ordered waiting index +
/// dependency counters; ClusterState flat ledger + end-time index), so the
/// cost of a decision point is O(1) context construction plus the
/// scheduler's own work - see ARCHITECTURE.md and, for the pre-refactor
/// semantics baseline, ReferenceEngine.
///
/// The event loop itself lives in sim::EngineCore (engine_core.hpp), a
/// steppable state machine the online service drives directly; run() is a
/// thin validate/load/step-to-exhaustion/finish loop over it, so batch and
/// service-mode execution share one per-step implementation.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Simulate `jobs` under `scheduler`. Throws std::invalid_argument for
  /// malformed inputs (duplicate ids, capacity-impossible jobs, dependency
  /// cycles). Always returns with every job completed.
  ScheduleResult run(const std::vector<Job>& jobs, Scheduler& scheduler);

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
};

}  // namespace reasched::sim
