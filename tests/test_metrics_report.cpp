#include <gtest/gtest.h>

#include "metrics/aggregate.hpp"
#include "metrics/normalize.hpp"
#include "metrics/report.hpp"
#include "util/stats.hpp"

namespace rm = reasched::metrics;

TEST(Normalize, RatioAgainstBaseline) {
  const auto n = rm::normalize_value(50.0, 100.0);
  EXPECT_TRUE(n.defined);
  EXPECT_DOUBLE_EQ(n.value, 0.5);
}

TEST(Normalize, ZeroOverZeroUndefined) {
  // The paper's Section 3.5 note: 0/0 wait-time normalization is omitted.
  EXPECT_FALSE(rm::normalize_value(0.0, 0.0).defined);
  EXPECT_FALSE(rm::normalize_value(5.0, 0.0).defined);
  EXPECT_TRUE(rm::normalize_value(0.0, 5.0).defined);
  EXPECT_DOUBLE_EQ(rm::normalize_value(0.0, 5.0).value, 0.0);
}

TEST(Normalize, MetricSetOverload) {
  rm::MetricSet method, baseline;
  method.makespan = 80.0;
  baseline.makespan = 100.0;
  const auto n = rm::normalize(method, baseline, rm::Metric::kMakespan);
  EXPECT_DOUBLE_EQ(n.value, 0.8);
}

namespace {
rm::MetricSet set_with(double makespan, double wait) {
  rm::MetricSet m;
  m.makespan = makespan;
  m.avg_wait = wait;
  m.avg_turnaround = makespan * 0.5;
  m.throughput = 1.0 / makespan;
  m.node_util = 0.5;
  m.mem_util = 0.4;
  m.wait_fairness = 0.9;
  m.user_fairness = 0.8;
  return m;
}
}  // namespace

TEST(Report, TableHasNaForUndefinedCells) {
  std::vector<rm::MethodResult> results = {{"FCFS", set_with(100, 0.0)},
                                           {"SJF", set_with(80, 0.0)}};
  const std::string table = rm::render_normalized_table(results, "FCFS");
  EXPECT_NE(table.find("n/a"), std::string::npos);  // 0/0 wait
  EXPECT_NE(table.find("0.800"), std::string::npos);
  EXPECT_NE(table.find("FCFS"), std::string::npos);
  EXPECT_NE(table.find("SJF"), std::string::npos);
}

TEST(Report, RawModeShowsAbsoluteValues) {
  std::vector<rm::MethodResult> results = {{"FCFS", set_with(100, 3.0)}};
  const std::string table = rm::render_normalized_table(results, "FCFS", /*raw=*/true);
  EXPECT_NE(table.find("100.000"), std::string::npos);
}

TEST(Report, MissingBaselineThrows) {
  std::vector<rm::MethodResult> results = {{"SJF", set_with(80, 1.0)}};
  EXPECT_THROW(rm::render_normalized_table(results, "FCFS"), std::invalid_argument);
}

TEST(Report, CsvShape) {
  std::vector<rm::MethodResult> results = {{"FCFS", set_with(100, 2.0)},
                                           {"Claude 3.7", set_with(70, 1.0)}};
  const auto csv = rm::normalized_csv(results, "FCFS");
  EXPECT_EQ(csv.rows(), 2u * rm::all_metrics().size());
  EXPECT_TRUE(csv.has_col("normalized_vs_fcfs"));
  // Claude makespan row: 70/100.
  bool found = false;
  for (std::size_t i = 0; i < csv.rows(); ++i) {
    if (csv.cell(i, "method") == "Claude 3.7" && csv.cell(i, "metric") == "Makespan") {
      EXPECT_EQ(csv.cell(i, "normalized_vs_fcfs").substr(0, 4), "0.70");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Aggregate, BoxStatsAcrossRepetitions) {
  rm::MetricAggregate agg;
  for (const double makespan : {100.0, 110.0, 90.0, 105.0, 95.0}) {
    agg.add(set_with(makespan, 1.0));
  }
  EXPECT_EQ(agg.n_samples(), 5u);
  EXPECT_DOUBLE_EQ(agg.mean(rm::Metric::kMakespan), 100.0);
  const auto box = reasched::util::box_stats(agg.values(rm::Metric::kMakespan));
  EXPECT_DOUBLE_EQ(box.median, 100.0);
  EXPECT_DOUBLE_EQ(box.min, 90.0);
  EXPECT_DOUBLE_EQ(box.max, 110.0);
  EXPECT_GT(agg.stddev(rm::Metric::kMakespan), 0.0);
}

TEST(Aggregate, MeanSetAveragesEveryField) {
  rm::MetricAggregate agg;
  agg.add(set_with(100, 2.0));
  agg.add(set_with(200, 4.0));
  const auto mean = agg.mean_set();
  EXPECT_DOUBLE_EQ(mean.makespan, 150.0);
  EXPECT_DOUBLE_EQ(mean.avg_wait, 3.0);
  EXPECT_DOUBLE_EQ(mean.node_util, 0.5);
}

TEST(Aggregate, EmptyMeanSetIsZero) {
  rm::MetricAggregate agg;
  EXPECT_DOUBLE_EQ(agg.mean_set().makespan, 0.0);
  EXPECT_EQ(agg.n_samples(), 0u);
}
