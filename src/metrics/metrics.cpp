#include "metrics/metrics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sim/energy.hpp"
#include "util/stats.hpp"

namespace reasched::metrics {

const std::vector<Metric>& all_metrics() {
  static const std::vector<Metric> v = {
      Metric::kMakespan,  Metric::kAvgWait,      Metric::kAvgTurnaround,
      Metric::kThroughput, Metric::kNodeUtil,    Metric::kMemUtil,
      Metric::kWaitFairness, Metric::kUserFairness,
  };
  return v;
}

std::string to_string(Metric m) {
  switch (m) {
    case Metric::kMakespan: return "Makespan";
    case Metric::kAvgWait: return "Avg Wait";
    case Metric::kAvgTurnaround: return "Avg Turnaround";
    case Metric::kThroughput: return "Throughput";
    case Metric::kNodeUtil: return "Node Util";
    case Metric::kMemUtil: return "Memory Util";
    case Metric::kWaitFairness: return "Wait Fairness";
    case Metric::kUserFairness: return "User Fairness";
  }
  return "?";
}

bool lower_is_better(Metric m) {
  switch (m) {
    case Metric::kMakespan:
    case Metric::kAvgWait:
    case Metric::kAvgTurnaround: return true;
    default: return false;
  }
}

double MetricSet::get(Metric m) const {
  switch (m) {
    case Metric::kMakespan: return makespan;
    case Metric::kAvgWait: return avg_wait;
    case Metric::kAvgTurnaround: return avg_turnaround;
    case Metric::kThroughput: return throughput;
    case Metric::kNodeUtil: return node_util;
    case Metric::kMemUtil: return mem_util;
    case Metric::kWaitFairness: return wait_fairness;
    case Metric::kUserFairness: return user_fairness;
  }
  return 0.0;
}

std::vector<double> per_user_mean_waits(const sim::ScheduleResult& result) {
  std::map<sim::UserId, std::pair<double, std::size_t>> acc;
  for (const auto& c : result.completed) {
    auto& [total, n] = acc[c.job.user];
    total += c.wait_time();
    ++n;
  }
  std::vector<double> out;
  out.reserve(acc.size());
  for (const auto& [user, pair] : acc) {
    out.push_back(pair.first / static_cast<double>(pair.second));
  }
  return out;
}

MetricSet compute_metrics(const sim::ScheduleResult& result, const sim::ClusterSpec& spec) {
  if (result.completed.empty()) {
    throw std::invalid_argument("compute_metrics: empty schedule result");
  }
  MetricSet m;
  double min_submit = result.completed.front().job.submit_time;
  double min_start = result.completed.front().start_time;
  double max_end = 0.0;
  double node_seconds = 0.0, mem_gb_seconds = 0.0;
  for (const auto& c : result.completed) {
    min_submit = std::min(min_submit, c.job.submit_time);
    min_start = std::min(min_start, c.start_time);
    max_end = std::max(max_end, c.end_time);
    node_seconds += static_cast<double>(c.job.nodes) * (c.end_time - c.start_time);
    mem_gb_seconds += c.job.memory_gb * (c.end_time - c.start_time);
  }
  const auto n = static_cast<double>(result.completed.size());
  m.makespan = max_end - min_submit;
  m.avg_wait = util::mean(result.wait_times());
  m.avg_turnaround = util::mean(result.turnaround_times());
  const double window = max_end - min_start;
  m.throughput = window > 0.0 ? n / window : 0.0;
  if (m.makespan > 0.0) {
    m.node_util = node_seconds / (static_cast<double>(spec.total_nodes) * m.makespan);
    m.mem_util = mem_gb_seconds / (spec.total_memory_gb * m.makespan);
  }
  m.wait_fairness = util::jain_index(result.wait_times());
  m.user_fairness = util::jain_index(per_user_mean_waits(result));
  m.energy_kwh = sim::compute_energy(result, spec).energy_kwh;
  return m;
}

}  // namespace reasched::metrics
