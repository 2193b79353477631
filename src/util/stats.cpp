#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace reasched::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double sum(const std::vector<double>& xs) { return std::accumulate(xs.begin(), xs.end(), 0.0); }

double quantile_sorted(const std::vector<double>& sorted_xs, double q) {
  if (sorted_xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_xs[lo] * (1.0 - frac) + sorted_xs[hi] * frac;
}

double quantile(std::vector<double> xs, double q) {
  // total-order: plain doubles; equal values are interchangeable.
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, q);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

BoxStats box_stats(std::vector<double> xs) {
  BoxStats b;
  b.n = xs.size();
  if (xs.empty()) return b;
  // total-order: plain doubles; equal values are interchangeable.
  std::sort(xs.begin(), xs.end());
  b.min = xs.front();
  b.max = xs.back();
  b.mean = mean(xs);
  b.q1 = quantile_sorted(xs, 0.25);
  b.median = quantile_sorted(xs, 0.5);
  b.q3 = quantile_sorted(xs, 0.75);
  const double iqr = b.q3 - b.q1;
  const double lo_fence = b.q1 - 1.5 * iqr;
  const double hi_fence = b.q3 + 1.5 * iqr;
  for (const double x : xs) {
    if (x < lo_fence || x > hi_fence) b.outliers.push_back(x);
  }
  return b;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0, s2 = 0.0;
  for (const double x : xs) {
    s += x;
    s2 += x * x;
  }
  if (s2 == 0.0) return 1.0;  // all-zero: perfectly equal by convention
  return (s * s) / (static_cast<double>(xs.size()) * s2);
}

}  // namespace reasched::util
