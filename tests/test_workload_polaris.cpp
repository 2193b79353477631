#include <gtest/gtest.h>

#include <set>
#include <string>

#include "workload/polaris.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;

TEST(PolarisRaw, HasExpectedColumnsAndRows) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 50;
  const auto raw = rw::generate_polaris_raw_trace(config, 1);
  EXPECT_EQ(raw.rows(), 50u);
  for (const char* col :
       {"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP", "START_TIMESTAMP",
        "END_TIMESTAMP", "NODES_REQUESTED", "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS",
        "EXIT_STATUS"}) {
    EXPECT_TRUE(raw.has_col(col)) << col;
  }
}

TEST(PolarisRaw, DeterministicPerSeed) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 20;
  const auto a = rw::generate_polaris_raw_trace(config, 5);
  const auto b = rw::generate_polaris_raw_trace(config, 5);
  EXPECT_EQ(a.to_string(), b.to_string());
  const auto c = rw::generate_polaris_raw_trace(config, 6);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(PolarisRaw, ContainsSomeFailures) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 300;
  const auto raw = rw::generate_polaris_raw_trace(config, 2);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < raw.rows(); ++i) {
    if (raw.cell(i, "EXIT_STATUS") == "-1") ++failed;
  }
  EXPECT_GT(failed, 5u);
  EXPECT_LT(failed, 100u);
}

TEST(PolarisPreprocess, FiltersFailedAndNormalizes) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 200;
  const auto raw = rw::generate_polaris_raw_trace(config, 3);
  const auto jobs = rw::preprocess_polaris_trace(raw, 100);
  ASSERT_EQ(jobs.size(), 100u);

  // Normalized: earliest submission at exactly 0; sorted by submit time.
  EXPECT_DOUBLE_EQ(jobs.front().submit_time, 0.0);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
  }
  const auto polaris = rs::ClusterSpec::polaris();
  std::set<int> users;
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.valid());
    EXPECT_LE(j.nodes, polaris.total_nodes);
    // Memory derived as nodes x 512 GB (Section 5).
    EXPECT_DOUBLE_EQ(j.memory_gb, j.nodes * 512.0);
    // Walltime request never below actual runtime after preprocessing.
    EXPECT_GE(j.walltime, j.duration - 1e-9);
    users.insert(j.user);
  }
  // Users factorized to contiguous anonymous ids starting at 1.
  EXPECT_EQ(*users.begin(), 1);
  EXPECT_EQ(*users.rbegin(), static_cast<int>(users.size()));
}

TEST(PolarisPreprocess, KeepsContiguousSegment) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 120;
  const auto raw = rw::generate_polaris_raw_trace(config, 4);
  const auto all = rw::preprocess_polaris_trace(raw, 10000);
  const auto segment = rw::preprocess_polaris_trace(raw, 30);
  ASSERT_LE(segment.size(), 30u);
  // The segment is the earliest-submitted prefix of the full cleaned trace.
  for (std::size_t i = 0; i < segment.size(); ++i) {
    EXPECT_DOUBLE_EQ(segment[i].duration, all[i].duration);
    EXPECT_EQ(segment[i].nodes, all[i].nodes);
  }
}

TEST(PolarisPreprocess, EmptyTraceYieldsEmpty) {
  reasched::util::CsvTable raw({"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP",
                                "START_TIMESTAMP", "END_TIMESTAMP", "NODES_REQUESTED",
                                "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS", "EXIT_STATUS"});
  EXPECT_TRUE(rw::preprocess_polaris_trace(raw, 10).empty());
  // Every row failed (EXIT_STATUS -1): nothing survives the filter.
  for (int i = 0; i < 10; ++i) {
    raw.add_row({"job_" + std::to_string(i), "u1", "g1", std::to_string(1000 + i), "2000",
                 "2600", "4", "900", "0", "-1"});
  }
  EXPECT_TRUE(rw::preprocess_polaris_trace(raw, 10).empty());
}

TEST(PolarisJobs, ConvenienceProducesExactCount) {
  const auto jobs = rw::polaris_jobs(100, 11);
  EXPECT_EQ(jobs.size(), 100u);
}

TEST(PolarisPreprocess, SameSubmitTimeKeepsRowOrder) {
  // Preprocessing sorts on SUBMIT_TIMESTAMP alone; same-second rows must
  // keep raw order so the assigned JobIds are deterministic (same fix as
  // SWF ingest). The tied rows are distinguishable by node count.
  reasched::util::CsvTable raw({"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP",
                                "START_TIMESTAMP", "END_TIMESTAMP", "NODES_REQUESTED",
                                "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS", "EXIT_STATUS"});
  auto add = [&](const char* name, const char* submit, int nodes) {
    raw.add_row({name, "u1", "g1", submit, "2000", "2600", std::to_string(nodes), "900", "0",
                 "0"});
  };
  add("job_a", "1000", 2);
  add("job_b", "1000", 4);
  add("job_c", "1000", 8);
  add("job_d", "900", 16);  // earlier; must lead after sorting

  const auto jobs = rw::preprocess_polaris_trace(raw, 10);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].nodes, 16);
  EXPECT_EQ(jobs[1].nodes, 2);
  EXPECT_EQ(jobs[2].nodes, 4);
  EXPECT_EQ(jobs[3].nodes, 8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<rs::JobId>(i + 1));
  }
}
