#include <gtest/gtest.h>

#include "metrics/metrics.hpp"

namespace rm = reasched::metrics;
namespace rs = reasched::sim;

namespace {
rs::CompletedJob completed(int id, int user, int nodes, double mem, double submit,
                           double start, double end) {
  rs::Job j;
  j.id = id;
  j.user = user;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.submit_time = submit;
  j.duration = end - start;
  j.walltime = j.duration;
  return rs::CompletedJob{j, start, end};
}
}  // namespace

TEST(Metrics, HandComputedTwoJobSchedule) {
  // Job 1: submit 0, start 0, end 100, 128 nodes, 1024 GB.
  // Job 2: submit 0, start 100, end 200, 256 nodes, 512 GB.
  rs::ScheduleResult r;
  r.completed = {completed(1, 1, 128, 1024, 0, 0, 100),
                 completed(2, 2, 256, 512, 0, 100, 200)};
  const auto m = rm::compute_metrics(r, rs::ClusterSpec::paper_default());

  EXPECT_DOUBLE_EQ(m.makespan, 200.0);
  EXPECT_DOUBLE_EQ(m.avg_wait, 50.0);         // (0 + 100) / 2
  EXPECT_DOUBLE_EQ(m.avg_turnaround, 150.0);  // (100 + 200) / 2
  EXPECT_DOUBLE_EQ(m.throughput, 2.0 / 200.0);
  // Node util: (128*100 + 256*100) / (256 * 200) = 38400/51200 = 0.75.
  EXPECT_DOUBLE_EQ(m.node_util, 0.75);
  // Mem util: (1024*100 + 512*100) / (2048 * 200) = 153600/409600 = 0.375.
  EXPECT_DOUBLE_EQ(m.mem_util, 0.375);
  // Jain({0, 100}) = 100^2 / (2 * 100^2) = 0.5.
  EXPECT_DOUBLE_EQ(m.wait_fairness, 0.5);
  EXPECT_DOUBLE_EQ(m.user_fairness, 0.5);  // users 1 and 2, waits {0, 100}
  EXPECT_GT(m.energy_kwh, 0.0);
}

TEST(Metrics, ZeroWaitGivesPerfectFairness) {
  rs::ScheduleResult r;
  r.completed = {completed(1, 1, 1, 1, 0, 0, 10), completed(2, 2, 1, 1, 5, 5, 15)};
  const auto m = rm::compute_metrics(r, rs::ClusterSpec::paper_default());
  EXPECT_DOUBLE_EQ(m.avg_wait, 0.0);
  EXPECT_DOUBLE_EQ(m.wait_fairness, 1.0);
  EXPECT_DOUBLE_EQ(m.user_fairness, 1.0);
}

TEST(Metrics, MakespanAnchoredAtEarliestSubmission) {
  rs::ScheduleResult r;
  r.completed = {completed(1, 1, 1, 1, 50, 60, 160)};
  const auto m = rm::compute_metrics(r, rs::ClusterSpec::paper_default());
  EXPECT_DOUBLE_EQ(m.makespan, 110.0);  // 160 - 50
  // Throughput window is start-anchored: 1 / (160 - 60).
  EXPECT_DOUBLE_EQ(m.throughput, 0.01);
}

TEST(Metrics, PerUserMeanWaits) {
  rs::ScheduleResult r;
  r.completed = {completed(1, 1, 1, 1, 0, 10, 20),   // user 1 wait 10
                 completed(2, 1, 1, 1, 0, 30, 40),   // user 1 wait 30
                 completed(3, 2, 1, 1, 0, 0, 10)};   // user 2 wait 0
  const auto waits = rm::per_user_mean_waits(r);
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_DOUBLE_EQ(waits[0], 20.0);
  EXPECT_DOUBLE_EQ(waits[1], 0.0);
}

TEST(Metrics, EmptyResultThrows) {
  EXPECT_THROW(rm::compute_metrics({}, rs::ClusterSpec::paper_default()),
               std::invalid_argument);
}

TEST(Metrics, MetricEnumPlumbing) {
  EXPECT_EQ(rm::all_metrics().size(), 8u);  // Figure 7's eight metrics
  rm::MetricSet m;
  m.makespan = 1;
  m.avg_wait = 2;
  m.avg_turnaround = 3;
  m.throughput = 4;
  m.node_util = 5;
  m.mem_util = 6;
  m.wait_fairness = 7;
  m.user_fairness = 8;
  double expected = 1.0;
  for (const auto metric : rm::all_metrics()) {
    EXPECT_DOUBLE_EQ(m.get(metric), expected);
    expected += 1.0;
  }
}

TEST(Metrics, Orientation) {
  EXPECT_TRUE(rm::lower_is_better(rm::Metric::kMakespan));
  EXPECT_TRUE(rm::lower_is_better(rm::Metric::kAvgWait));
  EXPECT_TRUE(rm::lower_is_better(rm::Metric::kAvgTurnaround));
  EXPECT_FALSE(rm::lower_is_better(rm::Metric::kThroughput));
  EXPECT_FALSE(rm::lower_is_better(rm::Metric::kWaitFairness));
}

TEST(Metrics, NamesUnique) {
  std::set<std::string> names;
  for (const auto metric : rm::all_metrics()) {
    EXPECT_TRUE(names.insert(rm::to_string(metric)).second);
  }
}

TEST(Metrics, UtilizationNeverExceedsOne) {
  // Full cluster for the whole horizon = exactly 1.0.
  rs::ScheduleResult r;
  r.completed = {completed(1, 1, 256, 2048, 0, 0, 100)};
  const auto m = rm::compute_metrics(r, rs::ClusterSpec::paper_default());
  EXPECT_DOUBLE_EQ(m.node_util, 1.0);
  EXPECT_DOUBLE_EQ(m.mem_util, 1.0);
}
