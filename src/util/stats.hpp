#pragma once

#include <cstddef>
#include <vector>

namespace reasched::util {

/// Descriptive statistics over a sample; all functions tolerate empty input
/// by returning 0 (documented per function) so report code stays branch-free.
double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);  ///< population variance; 0 if n < 2
double stddev(const std::vector<double>& xs);
double sum(const std::vector<double>& xs);

/// Linear-interpolated quantile, q in [0,1]. Returns 0 on empty input.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// quantile() over input that is already sorted ascending - O(1), no copy.
/// Callers that need several quantiles of one sample (box_stats, report
/// percentile tables) sort once and use this instead of paying a copy and
/// re-sort per quantile.
double quantile_sorted(const std::vector<double>& sorted_xs, double q);

/// Five-number summary + mean, the exact statistics a box plot encodes.
/// Values beyond the Tukey 1.5*IQR fences are reported as outliers (paper
/// Fig. 7 reads these off directly).
struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::vector<double> outliers;
  std::size_t n = 0;
};
BoxStats box_stats(std::vector<double> xs);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in [1/n, 1].
/// By convention returns 1.0 when all values are zero (perfectly equal) and
/// 0.0 on empty input.
double jain_index(const std::vector<double>& xs);

}  // namespace reasched::util
