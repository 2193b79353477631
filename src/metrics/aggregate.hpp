#pragma once

#include <map>
#include <vector>

#include "metrics/metrics.hpp"

namespace reasched::metrics {

/// Distribution of each metric across repeated runs - the statistical
/// robustness analysis of paper Section 4 (Figure 7's box plots).
class MetricAggregate {
 public:
  void add(const MetricSet& sample);

  std::size_t n_samples() const { return samples_.size(); }
  const std::vector<MetricSet>& samples() const { return samples_; }

  std::vector<double> values(Metric m) const;
  double mean(Metric m) const;
  double stddev(Metric m) const;

  /// Mean metric set across repetitions (used as the representative value
  /// when a figure reports a single number per cell).
  MetricSet mean_set() const;

 private:
  std::vector<MetricSet> samples_;
};

}  // namespace reasched::metrics
