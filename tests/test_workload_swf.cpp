#include <gtest/gtest.h>

#include <cstdio>

#include "workload/scenario_spec.hpp"
#include "workload/swf.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;

namespace {
// Three jobs in Parallel-Workloads-Archive field order; job 2 failed
// (status 0), job 3 has no requested memory / walltime.
const char* kSampleSwf =
    "; SWF header comment\n"
    "; UnixStartTime: 1000000\n"
    "1 100 5 300 16 -1 -1 16 600 2048 1 7 3 -1 -1 -1 -1 -1\n"
    "2 150 9 200 8 -1 -1 8 400 1024 0 8 3 -1 -1 -1 -1 -1\n"
    "3 200 2 120 4 -1 -1 -1 -1 -1 1 7 4 -1 -1 -1 -1 -1\n";
}  // namespace

TEST(Swf, ParsesCompletedJobsOnly) {
  const auto jobs = rw::parse_swf(kSampleSwf);
  ASSERT_EQ(jobs.size(), 2u);  // failed job filtered
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_EQ(jobs[1].id, 2);  // renumbered
}

TEST(Swf, FieldMapping) {
  const auto jobs = rw::parse_swf(kSampleSwf);
  const auto& j = jobs[0];
  EXPECT_DOUBLE_EQ(j.submit_time, 0.0);  // normalized (earliest = 100)
  EXPECT_DOUBLE_EQ(j.duration, 300.0);
  EXPECT_DOUBLE_EQ(j.walltime, 600.0);
  EXPECT_EQ(j.nodes, 16);
  // 2048 KB/proc * 16 procs = 0.03125 GB, raised to the 0.5 GB floor the
  // parser applies (sub-GB requests are archive noise).
  EXPECT_DOUBLE_EQ(j.memory_gb, 0.5);
  EXPECT_EQ(j.user, 1);   // factorized from 7
  EXPECT_EQ(j.group, 1);  // factorized from 3

  const auto& k = jobs[1];
  EXPECT_DOUBLE_EQ(k.submit_time, 100.0);
  EXPECT_EQ(k.nodes, 4);  // fallback to allocated processors
  EXPECT_DOUBLE_EQ(k.walltime, 120.0);  // fallback to run time
  // No memory in trace: default 4 GB/node.
  EXPECT_DOUBLE_EQ(k.memory_gb, 16.0);
  EXPECT_EQ(k.user, 1);   // same raw user 7
  EXPECT_EQ(k.group, 2);  // new raw group 4
}

TEST(Swf, KeepFailedWhenRequested) {
  rw::SwfOptions options;
  options.completed_only = false;
  EXPECT_EQ(rw::parse_swf(kSampleSwf, options).size(), 3u);
}

TEST(Swf, MaxJobsAndNodeClamp) {
  rw::SwfOptions options;
  options.max_jobs = 1;
  options.max_nodes = 8;
  const auto jobs = rw::parse_swf(kSampleSwf, options);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].nodes, 8);  // clamped from 16
}

TEST(Swf, SameSubmitTimeKeepsFileOrder) {
  // Same-second submissions are everywhere in real traces; ingest sorts on
  // `submit` alone, so ties must keep file order (stable sort) or JobIds
  // become implementation-defined. Distinguish the tied records by their
  // node counts.
  const char* tied =
      "1 500 5 300 2 -1 -1 2 600 1024 1 1 1 -1 -1 -1 -1 -1\n"
      "2 500 5 300 4 -1 -1 4 600 1024 1 2 1 -1 -1 -1 -1 -1\n"
      "3 500 5 300 8 -1 -1 8 600 1024 1 3 1 -1 -1 -1 -1 -1\n"
      "4 400 5 300 16 -1 -1 16 600 1024 1 4 1 -1 -1 -1 -1 -1\n";
  const auto jobs = rw::parse_swf(tied);
  ASSERT_EQ(jobs.size(), 4u);
  // Earliest submission first; the tied group follows in file order.
  EXPECT_EQ(jobs[0].nodes, 16);
  EXPECT_EQ(jobs[1].nodes, 2);
  EXPECT_EQ(jobs[2].nodes, 4);
  EXPECT_EQ(jobs[3].nodes, 8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<rs::JobId>(i + 1));  // ids follow that order
    EXPECT_DOUBLE_EQ(jobs[i].submit_time, i == 0 ? 0.0 : 100.0);
  }
}

TEST(Swf, MalformedLineThrows) {
  EXPECT_THROW(rw::parse_swf("1 2 3\n"), std::runtime_error);
}

TEST(Swf, EmptyAndCommentOnly) {
  EXPECT_TRUE(rw::parse_swf("").empty());
  EXPECT_TRUE(rw::parse_swf("; just a header\n\n").empty());
}

TEST(Swf, RoundTripThroughExport) {
  const auto original = rw::generate_scenario("hetero_mix", 20, 9);
  const std::string swf = rw::jobs_to_swf(original);
  rw::SwfOptions options;
  options.default_memory_gb_per_node = 1.0;
  const auto restored = rw::parse_swf(swf, options);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].nodes, original[i].nodes);
    EXPECT_NEAR(restored[i].duration, original[i].duration, 1.0);   // %.0f rounding
    EXPECT_NEAR(restored[i].submit_time, original[i].submit_time, 1.0);
    EXPECT_NEAR(restored[i].memory_gb, original[i].memory_gb,
                original[i].memory_gb * 0.01 + 0.1);
  }
}

TEST(Swf, SaveLoadFile) {
  const auto jobs = rw::generate_scenario("resource_sparse", 5, 2);
  const std::string path = ::testing::TempDir() + "/reasched_swf_test.swf";
  rw::save_swf(jobs, path);
  EXPECT_EQ(rw::load_swf(path).size(), 5u);
  std::remove(path.c_str());
}

// --- GenerateOptions: walltime-estimate noise -------------------------------

TEST(GenerateOptions, WalltimeNoiseOverestimates) {
  rw::GenerateOptions options;
  options.walltime_factor_min = 1.2;
  options.walltime_factor_max = 2.0;
  const auto jobs = rw::generate_scenario("hetero_mix", 60, 4, options);
  for (const auto& j : jobs) {
    if (j.nodes == 128 && j.duration == 100000.0) continue;  // adversarial blocker n/a
    EXPECT_GE(j.walltime, j.duration * 1.2 - 1e-6) << j.describe();
    EXPECT_LE(j.walltime, j.duration * 2.0 + 1e-6) << j.describe();
  }
}

TEST(GenerateOptions, ExactByDefault) {
  const auto jobs = rw::generate_scenario("homog_short", 10, 5);
  for (const auto& j : jobs) EXPECT_DOUBLE_EQ(j.walltime, j.duration);
}

TEST(GenerateOptions, RejectsBadFactors) {
  rw::GenerateOptions options;
  options.walltime_factor_min = 2.0;
  options.walltime_factor_max = 1.5;
  EXPECT_THROW(
      rw::generate_scenario("homog_short", 5, 1, options),
      std::invalid_argument);
  options.walltime_factor_min = 0.5;
  options.walltime_factor_max = 1.5;
  EXPECT_THROW(
      rw::generate_scenario("homog_short", 5, 1, options),
      std::invalid_argument);
}

TEST(GenerateOptions, NoisyEstimatesStillSimulate) {
  // Schedulers see inflated walltimes but the simulator runs true durations;
  // SJF's ordering degrades gracefully rather than breaking.
  rw::GenerateOptions options;
  options.walltime_factor_min = 1.1;
  options.walltime_factor_max = 3.0;
  const auto jobs = rw::generate_scenario("hetero_mix", 30, 6, options);
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.valid());
    EXPECT_GT(j.walltime, j.duration);
  }
}
