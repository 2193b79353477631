#pragma once

#include <string>
#include <vector>

namespace reasched::sim {

using JobId = int;
using UserId = int;
using GroupId = int;

/// Lifecycle of a job inside the engine's indexed state: kPending (submitted,
/// arrival event not yet fired), kBlocked (arrived, dependencies unmet),
/// kWaiting (eligible, in the ordered waiting index), kRunning, kCompleted.
/// kCancelled is reachable only through the online service mode: a client
/// withdrew the job before it started (batch runs never cancel).
enum class JobState { kPending, kWaiting, kRunning, kCompleted, kBlocked, kCancelled };

/// A batch job as the paper models it (Section 2.1): resource demands
/// r_i = (n_i, m_i), a duration d_j, a submit time s_j, and user metadata
/// used by the per-user fairness objective. `walltime` is the user-visible
/// estimate shown to schedulers; `duration` is the true runtime used by the
/// simulator to fire the completion event (the two coincide unless a
/// generator injects estimate noise).
struct Job {
  JobId id = 0;
  UserId user = 0;
  GroupId group = 0;
  double submit_time = 0.0;
  double duration = 0.0;
  double walltime = 0.0;
  int nodes = 1;
  double memory_gb = 1.0;
  /// Extension (paper Section 6, future work): jobs that must complete
  /// before this one becomes eligible.
  std::vector<JobId> dependencies;

  /// True when resource demands are internally consistent and satisfiable in
  /// principle (positive duration, at least one node, non-negative memory).
  bool valid() const;

  /// Node-seconds consumed, the quantity utilization integrates.
  double node_seconds() const { return static_cast<double>(nodes) * duration; }

  std::string describe() const;
};

/// Order jobs by (submit_time, id) - the canonical queue/arrival order.
bool arrival_order(const Job& a, const Job& b);

/// Order jobs by (walltime, submit_time, id) - SJF's total order. The
/// arrival-order tie-break makes the minimum unique, so the front of an
/// index sorted by this comparator is exactly what a min_element scan with
/// it returns.
bool sjf_order(const Job& a, const Job& b);

const char* to_string(JobState s);

}  // namespace reasched::sim
