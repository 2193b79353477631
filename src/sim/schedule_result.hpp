#pragma once

#include <string>
#include <vector>

#include "sim/action.hpp"
#include "sim/job.hpp"

namespace reasched::sim {

/// One finished job with its realized schedule: wait = start - submit,
/// turnaround = end - submit (paper Section 3.2).
struct CompletedJob {
  Job job;
  double start_time = 0.0;
  double end_time = 0.0;
  /// True when the engine terminated the job at its walltime limit
  /// (only with EngineConfig::enforce_walltime).
  bool killed_at_walltime = false;

  double wait_time() const { return start_time - job.submit_time; }
  double turnaround_time() const { return end_time - job.submit_time; }
};

/// One scheduler query and its outcome, including the natural-language
/// thought (when the scheduler exposes one) and any constraint feedback -
/// this is the machine-readable form of the paper's Figure 2 traces.
struct DecisionRecord {
  double time = 0.0;
  Action action;
  bool accepted = false;
  std::string thought;
  std::string feedback;  ///< non-empty only for rejected actions
};

/// Full outcome of one simulation run.
struct ScheduleResult {
  std::vector<CompletedJob> completed;
  std::vector<DecisionRecord> decisions;

  /// Simulation clock when the last job completed.
  double final_time = 0.0;

  /// Bookkeeping counters the evaluation reads off.
  std::size_t n_decisions = 0;        ///< scheduler queries issued
  std::size_t n_invalid_actions = 0;  ///< rejected by constraint enforcement
  std::size_t n_forced_delays = 0;    ///< retries exhausted, engine forced Delay
  std::size_t n_backfills = 0;        ///< accepted BackfillJob actions

  /// Find the record for `id`; throws std::out_of_range when absent.
  const CompletedJob& find(JobId id) const;

  /// Wait/turnaround vectors in job-id order, for metric computation.
  std::vector<double> wait_times() const;
  std::vector<double> turnaround_times() const;
};

}  // namespace reasched::sim
