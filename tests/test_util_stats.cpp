#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace ru = reasched::util;

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(ru::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(ru::variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(ru::stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsReturnZero) {
  const std::vector<double> empty;
  EXPECT_EQ(ru::mean(empty), 0.0);
  EXPECT_EQ(ru::variance(empty), 0.0);
  EXPECT_EQ(ru::quantile({}, 0.5), 0.0);
  EXPECT_EQ(ru::jain_index(empty), 0.0);
}

TEST(Stats, SingleElement) {
  const std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(ru::mean(one), 3.5);
  EXPECT_DOUBLE_EQ(ru::variance(one), 0.0);
  EXPECT_DOUBLE_EQ(ru::median(one), 3.5);
  EXPECT_DOUBLE_EQ(ru::jain_index(one), 1.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(ru::median(xs), 2.5);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(Stats, QuantileClampsQ) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(ru::quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 2.0), 2.0);
}

TEST(Stats, QuantileSortedMatchesQuantile) {
  ru::Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 257; ++i) xs.push_back(rng.uniform_real(-50.0, 200.0));
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(ru::quantile_sorted(sorted, q), ru::quantile(xs, q)) << "q=" << q;
  }
}

TEST(Stats, QuantileSortedEdgeCases) {
  EXPECT_DOUBLE_EQ(ru::quantile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ru::quantile_sorted({4.0}, 0.25), 4.0);
  EXPECT_DOUBLE_EQ(ru::quantile_sorted({1.0, 2.0}, -1.0), 1.0);  // q clamped
  EXPECT_DOUBLE_EQ(ru::quantile_sorted({1.0, 2.0}, 2.0), 2.0);
}

TEST(Stats, BoxStatsQuartilesMatchQuantiles) {
  // box_stats now computes its quartiles through the sorted-input path; they
  // must agree with the standalone (copy-and-sort) quantile.
  ru::Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 101; ++i) xs.push_back(rng.lognormal(1.0, 0.8));
  const auto b = ru::box_stats(xs);
  EXPECT_DOUBLE_EQ(b.q1, ru::quantile(xs, 0.25));
  EXPECT_DOUBLE_EQ(b.median, ru::quantile(xs, 0.5));
  EXPECT_DOUBLE_EQ(b.q3, ru::quantile(xs, 0.75));
}

TEST(Stats, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(ru::median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Stats, BoxStatsBasics) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto b = ru::box_stats(xs);
  EXPECT_EQ(b.n, 9u);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 7.0);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(Stats, BoxStatsDetectsOutliers) {
  // Tight cluster plus one extreme point: Tukey fences flag it.
  std::vector<double> xs = {10, 10.5, 11, 11.5, 12, 100};
  const auto b = ru::box_stats(xs);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
}

TEST(Stats, JainIndexEqualSharesIsOne) {
  EXPECT_DOUBLE_EQ(ru::jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(Stats, JainIndexAllZerosIsOneByConvention) {
  // The paper normalizes fairness on wait times; all-zero waits mean
  // perfectly equal treatment.
  EXPECT_DOUBLE_EQ(ru::jain_index({0.0, 0.0, 0.0}), 1.0);
}

TEST(Stats, JainIndexSingleUserDominance) {
  // One non-zero among n values -> 1/n, the theoretical minimum.
  EXPECT_DOUBLE_EQ(ru::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Stats, JainKnownMixedValue) {
  // Jain({1,2,3}) = 36 / (3 * 14) = 6/7.
  EXPECT_NEAR(ru::jain_index({1.0, 2.0, 3.0}), 6.0 / 7.0, 1e-12);
}

// Property: for any positive sample of size n, 1/n <= Jain <= 1.
class JainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JainProperty, BoundsHold) {
  ru::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.uniform_real(0.0, 100.0));
  const double j = ru::jain_index(xs);
  EXPECT_GE(j, 1.0 / static_cast<double>(n) - 1e-12);
  EXPECT_LE(j, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JainProperty, ::testing::Range<std::uint64_t>(0, 25));

// Property: box stats are internally ordered for arbitrary samples.
class BoxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoxProperty, Ordered) {
  ru::Rng rng(GetParam());
  std::vector<double> xs;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.normal(0.0, 10.0));
  const auto b = ru::box_stats(xs);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_EQ(b.n, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxProperty, ::testing::Range<std::uint64_t>(100, 120));
