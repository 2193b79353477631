#include "metrics/aggregate.hpp"

#include "util/stats.hpp"

namespace reasched::metrics {

void MetricAggregate::add(const MetricSet& sample) { samples_.push_back(sample); }

std::vector<double> MetricAggregate::values(Metric m) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.get(m));
  return out;
}

double MetricAggregate::mean(Metric m) const { return util::mean(values(m)); }

double MetricAggregate::stddev(Metric m) const { return util::stddev(values(m)); }

MetricSet MetricAggregate::mean_set() const {
  MetricSet out;
  if (samples_.empty()) return out;
  for (const auto& s : samples_) {
    out.makespan += s.makespan;
    out.avg_wait += s.avg_wait;
    out.avg_turnaround += s.avg_turnaround;
    out.throughput += s.throughput;
    out.node_util += s.node_util;
    out.mem_util += s.mem_util;
    out.wait_fairness += s.wait_fairness;
    out.user_fairness += s.user_fairness;
    out.energy_kwh += s.energy_kwh;
  }
  const auto n = static_cast<double>(samples_.size());
  out.makespan /= n;
  out.avg_wait /= n;
  out.avg_turnaround /= n;
  out.throughput /= n;
  out.node_util /= n;
  out.mem_util /= n;
  out.wait_fairness /= n;
  out.user_fairness /= n;
  out.energy_kwh /= n;
  return out;
}

}  // namespace reasched::metrics
