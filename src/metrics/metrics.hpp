#pragma once

#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/schedule_result.hpp"

namespace reasched::metrics {

/// The paper's evaluation objectives (Section 3.2) - the eight metrics of
/// Figure 7 (node and memory utilization reported separately).
enum class Metric {
  kMakespan,
  kAvgWait,
  kAvgTurnaround,
  kThroughput,
  kNodeUtil,
  kMemUtil,
  kWaitFairness,  ///< Jain's index over per-job wait times
  kUserFairness,  ///< Jain's index over per-user average wait times
};

const std::vector<Metric>& all_metrics();
std::string to_string(Metric m);
/// True for metrics where lower is better (makespan, wait, turnaround).
bool lower_is_better(Metric m);

/// One run's metric values.
struct MetricSet {
  double makespan = 0.0;
  double avg_wait = 0.0;
  double avg_turnaround = 0.0;
  double throughput = 0.0;
  double node_util = 0.0;
  double mem_util = 0.0;
  double wait_fairness = 1.0;
  double user_fairness = 1.0;
  /// Extension: energy integrated over the schedule horizon (kWh).
  double energy_kwh = 0.0;

  double get(Metric m) const;
};

/// Compute all metrics from a finished simulation (paper formulas):
///   makespan      = max_j end_j - min_j submit_j
///   avg wait      = mean(start_j - submit_j)
///   avg turnaround= mean(end_j - submit_j)
///   throughput    = n / (max_j end_j - min_j start_j)
///   node util     = sum(nodes_j * dur_j) / (C * makespan)
///   mem util      = sum(mem_j * dur_j)   / (M * makespan)
///   wait fairness = Jain({w_j})
///   user fairness = Jain({mean wait of user u})
/// Throws std::invalid_argument on empty results.
MetricSet compute_metrics(const sim::ScheduleResult& result, const sim::ClusterSpec& spec);

/// Per-user average wait times (sorted by user id), exposed for tests.
std::vector<double> per_user_mean_waits(const sim::ScheduleResult& result);

}  // namespace reasched::metrics
