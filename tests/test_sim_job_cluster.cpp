#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/job.hpp"

namespace rs = reasched::sim;

namespace {
rs::Job make_job(int id, int nodes, double mem, double dur) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  return j;
}
}  // namespace

TEST(Job, ValidityRules) {
  EXPECT_TRUE(make_job(1, 2, 4, 100).valid());
  EXPECT_FALSE(make_job(0, 2, 4, 100).valid());   // id must be positive
  EXPECT_FALSE(make_job(1, 0, 4, 100).valid());   // at least one node
  EXPECT_FALSE(make_job(1, 2, 4, 0).valid());     // positive duration
  EXPECT_FALSE(make_job(1, 2, -1, 100).valid());  // non-negative memory
  rs::Job early = make_job(1, 2, 4, 100);
  early.submit_time = -1;
  EXPECT_FALSE(early.valid());
}

TEST(Job, AreaAccessors) {
  const auto j = make_job(1, 4, 16, 100);
  EXPECT_DOUBLE_EQ(j.node_seconds(), 400.0);
}

TEST(Job, ArrivalOrderTieBreaksById) {
  auto a = make_job(1, 1, 1, 10);
  auto b = make_job(2, 1, 1, 10);
  EXPECT_TRUE(rs::arrival_order(a, b));
  b.submit_time = 5;
  EXPECT_TRUE(rs::arrival_order(a, b));
  a.submit_time = 10;
  EXPECT_FALSE(rs::arrival_order(a, b));
}

TEST(ClusterSpec, PaperAndPolarisDefaults) {
  const auto paper = rs::ClusterSpec::paper_default();
  EXPECT_EQ(paper.total_nodes, 256);
  EXPECT_DOUBLE_EQ(paper.total_memory_gb, 2048.0);
  const auto polaris = rs::ClusterSpec::polaris();
  EXPECT_EQ(polaris.total_nodes, 560);
  EXPECT_DOUBLE_EQ(polaris.total_memory_gb, 560.0 * 512.0);
}

TEST(ClusterState, AllocateReleaseCycle) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  EXPECT_EQ(c.available_nodes(), 256);
  const auto j = make_job(1, 100, 500, 60);
  EXPECT_TRUE(c.fits(j));
  c.allocate(j, 10.0);
  EXPECT_EQ(c.available_nodes(), 156);
  EXPECT_DOUBLE_EQ(c.available_memory_gb(), 1548.0);
  EXPECT_TRUE(c.is_running(1));
  EXPECT_TRUE(c.invariants_hold());

  const auto alloc = c.release(1);
  EXPECT_DOUBLE_EQ(alloc.start_time, 10.0);
  EXPECT_DOUBLE_EQ(alloc.end_time, 70.0);
  EXPECT_EQ(c.available_nodes(), 256);
  EXPECT_FALSE(c.is_running(1));
  EXPECT_TRUE(c.invariants_hold());
}

TEST(ClusterState, RejectsOverAllocation) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  c.allocate(make_job(1, 200, 1000, 60), 0.0);
  EXPECT_FALSE(c.fits(make_job(2, 100, 10, 60)));   // nodes exhausted
  EXPECT_THROW(c.allocate(make_job(2, 100, 10, 60), 0.0), std::logic_error);
  EXPECT_FALSE(c.fits(make_job(3, 10, 2000, 60)));  // memory exhausted
  EXPECT_THROW(c.allocate(make_job(3, 10, 2000, 60), 0.0), std::logic_error);
  // A job that fits both dimensions is fine.
  c.allocate(make_job(4, 56, 1048, 60), 0.0);
  EXPECT_EQ(c.available_nodes(), 0);
  EXPECT_TRUE(c.invariants_hold());
}

TEST(ClusterState, RejectsDuplicateAndUnknown) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  c.allocate(make_job(1, 1, 1, 10), 0.0);
  EXPECT_THROW(c.allocate(make_job(1, 1, 1, 10), 0.0), std::logic_error);
  EXPECT_THROW(c.release(99), std::logic_error);
}

TEST(ClusterState, FitsEmptyChecksTotalCapacity) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  c.allocate(make_job(1, 256, 0, 10), 0.0);
  const auto big = make_job(2, 256, 2048, 10);
  EXPECT_FALSE(c.fits(big));
  EXPECT_TRUE(c.fits_empty(big));
  EXPECT_FALSE(c.fits_empty(make_job(3, 257, 1, 10)));
  EXPECT_FALSE(c.fits_empty(make_job(4, 1, 2049, 10)));
}

TEST(ClusterState, RunningByEndTimeSorted) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  c.allocate(make_job(1, 1, 1, 300), 0.0);  // ends 300
  c.allocate(make_job(2, 1, 1, 50), 0.0);   // ends 50
  c.allocate(make_job(3, 1, 1, 120), 0.0);  // ends 120
  const auto running = c.running_by_end_time();
  ASSERT_EQ(running.size(), 3u);
  EXPECT_EQ(running[0].job.id, 2);
  EXPECT_EQ(running[1].job.id, 3);
  EXPECT_EQ(running[2].job.id, 1);
}

TEST(ClusterState, RejectsBadSpec) {
  rs::ClusterSpec bad;
  bad.total_nodes = 0;
  EXPECT_THROW(rs::ClusterState{bad}, std::invalid_argument);
}

TEST(ClusterState, EarliestFitImmediateWhenFree) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());  // 256 nodes, 2048 GB
  c.allocate(make_job(1, 100, 100, 300), 0.0);
  const auto p = c.earliest_fit(50, 10.0, 5.0);
  EXPECT_DOUBLE_EQ(p.time, 5.0);  // fits against current availability
  EXPECT_EQ(p.spare_nodes, 156 - 50);
  EXPECT_DOUBLE_EQ(p.spare_memory_gb, 1948.0 - 10.0);
}

TEST(ClusterState, EarliestFitWalksReleasesInEndOrder) {
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  c.allocate(make_job(1, 100, 400, 300), 0.0);  // ends 300
  c.allocate(make_job(2, 100, 400, 50), 0.0);   // ends 50
  c.allocate(make_job(3, 50, 400, 120), 0.0);   // ends 120; 6 nodes free now
  // 160 nodes need the releases at t=50 and t=120 (6 + 100 + 50 = 156 < 160
  // is false: 6+100=106 < 160, +50 = 156 < 160 -> needs t=300 release too).
  const auto p = c.earliest_fit(160, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(p.time, 300.0);
  EXPECT_EQ(p.spare_nodes, 256 - 160);
  // Memory-bound request: nodes trivial, needs 1400 GB => frees at t=120
  // (848 now... 848? 2048 - 1200 = 848 free, +400 at t=50 = 1248, +400 at
  // t=120 = 1648 >= 1400).
  const auto q = c.earliest_fit(1, 1400.0, 0.0);
  EXPECT_DOUBLE_EQ(q.time, 120.0);
  EXPECT_EQ(q.spare_nodes, 6 + 100 + 50 - 1);
  EXPECT_DOUBLE_EQ(q.spare_memory_gb, 1648.0 - 1400.0);
}

TEST(ClusterState, EarliestFitMatchesLinearWalkUnderChurn) {
  // Differential check after interleaved allocate/release churn: the
  // incrementally maintained release-prefix aggregates must agree with a
  // fresh walk over running_by_end_time() for every probe.
  rs::ClusterState c(rs::ClusterSpec::paper_default());
  // The walk sums releases separately and adds availability at comparison
  // time - the association earliest_fit and the EASY policies share. The
  // memory values below are deliberately inexact in binary (x.3 GB), so a
  // mismatched summation order would surface here as off-by-one-release
  // shadows at partial-sum boundaries.
  auto linear_walk = [&](int nodes, double memory_gb, double now) {
    const int avail_n = c.available_nodes();
    const double avail_m = c.available_memory_gb();
    int rel_n = 0;
    double rel_m = 0.0;
    rs::FitProjection s;
    s.time = now;
    for (const auto& alloc : c.running_by_end_time()) {
      if (avail_n + rel_n >= nodes && avail_m + rel_m >= memory_gb) break;
      rel_n += alloc.job.nodes;
      rel_m += alloc.job.memory_gb;
      s.time = alloc.end_time;
    }
    s.spare_nodes = avail_n + rel_n - nodes;
    s.spare_memory_gb = avail_m + rel_m - memory_gb;
    return s;
  };
  int next_id = 1;
  std::vector<double> probe_mems = {8.3, 500.7, 2000.1};
  for (int round = 0; round < 4; ++round) {  // net +48 nodes/round, peak 226 of 256
    for (int i = 0; i < 4; ++i) {
      c.allocate(make_job(next_id, 10 + 7 * i, 30.3 + 11.3 * i, 40 + 13 * i + round),
                 10.0 * round);
      ++next_id;
    }
    c.release(next_id - 2);
    c.release(next_id - 4);
    ASSERT_TRUE(c.invariants_hold());
    // Probe exact partial-sum boundaries too: requests equal to availability
    // plus each release prefix are where an association mismatch flips the
    // threshold comparison.
    std::vector<double> mems = probe_mems;
    double prefix = 0.0;
    for (const auto& alloc : c.running_by_end_time()) {
      prefix += alloc.job.memory_gb;
      mems.push_back(c.available_memory_gb() + prefix);
    }
    for (const int nodes : {1, 40, 120, 256}) {
      for (const double mem : mems) {
        const auto got = c.earliest_fit(nodes, mem, 100.0);
        const auto want = linear_walk(nodes, mem, 100.0);
        EXPECT_DOUBLE_EQ(got.time, want.time) << nodes << "/" << mem;
        EXPECT_EQ(got.spare_nodes, want.spare_nodes) << nodes << "/" << mem;
        EXPECT_DOUBLE_EQ(got.spare_memory_gb, want.spare_memory_gb) << nodes << "/" << mem;
      }
    }
  }
}
