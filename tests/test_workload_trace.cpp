#include <gtest/gtest.h>

#include <cstdio>

#include "workload/scenario_spec.hpp"
#include "workload/trace.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;

TEST(Trace, RoundTripPreservesEverything) {
  auto jobs = rw::generate_scenario("hetero_mix", 25, 99);
  jobs[3].dependencies = {1, 2};
  jobs[10].dependencies = {4};

  const auto csv = rw::jobs_to_csv(jobs);
  EXPECT_EQ(csv.rows(), jobs.size());
  const auto restored = rw::jobs_from_csv(csv);
  ASSERT_EQ(restored.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(restored[i].id, jobs[i].id);
    EXPECT_EQ(restored[i].user, jobs[i].user);
    EXPECT_EQ(restored[i].group, jobs[i].group);
    EXPECT_NEAR(restored[i].submit_time, jobs[i].submit_time, 1e-5);
    EXPECT_NEAR(restored[i].duration, jobs[i].duration, 1e-5);
    EXPECT_NEAR(restored[i].walltime, jobs[i].walltime, 1e-5);
    EXPECT_EQ(restored[i].nodes, jobs[i].nodes);
    EXPECT_NEAR(restored[i].memory_gb, jobs[i].memory_gb, 1e-5);
    EXPECT_EQ(restored[i].dependencies, jobs[i].dependencies);
  }
}

TEST(Trace, SaveLoadFile) {
  const auto jobs = rw::generate_scenario("resource_sparse", 5, 1);
  const std::string path = ::testing::TempDir() + "/reasched_trace_test.csv";
  rw::save_jobs(jobs, path);
  const auto loaded = rw::load_jobs(path);
  EXPECT_EQ(loaded.size(), 5u);
  std::remove(path.c_str());
}

TEST(Trace, RejectsMalformedCells) {
  reasched::util::CsvTable bad(
      {"job_id", "user", "group", "submit_time", "duration", "walltime", "nodes",
       "memory_gb", "dependencies"});
  bad.add_row({"x", "1", "1", "0", "10", "10", "1", "1", ""});
  EXPECT_THROW(rw::jobs_from_csv(bad), std::runtime_error);

  reasched::util::CsvTable bad_dep(
      {"job_id", "user", "group", "submit_time", "duration", "walltime", "nodes",
       "memory_gb", "dependencies"});
  bad_dep.add_row({"1", "1", "1", "0", "10", "10", "1", "1", "a;b"});
  EXPECT_THROW(rw::jobs_from_csv(bad_dep), std::runtime_error);
}
