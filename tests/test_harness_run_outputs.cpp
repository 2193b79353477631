#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "harness/experiment.hpp"
#include "metrics/gantt.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rm = reasched::metrics;
namespace rw = reasched::workload;
namespace rs = reasched::sim;

namespace {
rh::RunOutcome sample_outcome(const rh::MethodSpec& method) {
  const auto jobs = rw::generate_scenario("hetero_mix", 12, 33);
  return rh::run_method(jobs, method, 33);
}
}  // namespace

TEST(Gantt, RendersBarsAndUtilization) {
  const auto outcome = sample_outcome("fcfs");
  const std::string gantt =
      rm::render_gantt(outcome.schedule, rs::ClusterSpec::paper_default());
  EXPECT_NE(gantt.find("Gantt: 12 job(s)"), std::string::npos);
  EXPECT_NE(gantt.find("J1"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find("util (0-9)"), std::string::npos);
  // One row per job + header + util row.
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 14);
}

TEST(Gantt, EmptyScheduleHandled) {
  EXPECT_EQ(rm::render_gantt({}, rs::ClusterSpec::paper_default()), "(empty schedule)\n");
}

TEST(Gantt, RowCapKeepsLargestJobs) {
  const auto jobs = rw::generate_scenario("hetero_mix", 60, 7);
  const auto outcome = rh::run_method(jobs, "fcfs", 7);
  const std::string gantt =
      rm::render_gantt(outcome.schedule, rs::ClusterSpec::paper_default());
  EXPECT_NE(gantt.find("Gantt: 60 job(s)"), std::string::npos);
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 42);  // 40 rows + header + util

  // The 40 rows shown are the 40 largest jobs by node-seconds.
  std::vector<double> sizes;
  for (const auto& c : outcome.schedule.completed) sizes.push_back(c.job.node_seconds());
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const double smallest_shown = sizes[39];
  std::size_t shown = 0;
  for (const auto& c : outcome.schedule.completed) {
    const bool listed =
        gantt.find(reasched::util::format("J%-4d %3dn |", c.job.id, c.job.nodes)) !=
        std::string::npos;
    if (listed) {
      ++shown;
      EXPECT_GE(c.job.node_seconds(), smallest_shown) << "J" << c.job.id;
    }
  }
  EXPECT_EQ(shown, 40u);
}

TEST(Gantt, UtilizationProfileBounds) {
  const auto outcome = sample_outcome("opt:portfolio");
  const std::string gantt =
      rm::render_gantt(outcome.schedule, rs::ClusterSpec::paper_default());
  const std::string prefix = "util (0-9)  |";
  const std::size_t at = gantt.find(prefix);
  ASSERT_NE(at, std::string::npos);
  const std::size_t from = at + prefix.size();
  const std::string profile = gantt.substr(from, gantt.find('|', from) - from);
  EXPECT_EQ(profile.size(), 72u);
  for (const char c : profile) {
    EXPECT_GE(c, '0');
    EXPECT_LE(c, '9');
  }
}

TEST(WalltimeEnforcement, KillsOverrunningJobs) {
  // duration 100 but walltime 40: with enforcement the job ends at t=40 and
  // is flagged; without, it runs its full 100 s.
  rs::Job j;
  j.id = 1;
  j.user = 1;
  j.nodes = 4;
  j.memory_gb = 8;
  j.duration = 100;
  j.walltime = 40;

  rs::EngineConfig strict;
  strict.enforce_walltime = true;
  rs::Engine strict_engine(strict);
  auto fcfs = rh::make_scheduler("fcfs", 1);
  const auto killed = strict_engine.run({j}, *fcfs);
  ASSERT_EQ(killed.completed.size(), 1u);
  EXPECT_TRUE(killed.completed[0].killed_at_walltime);
  EXPECT_DOUBLE_EQ(killed.completed[0].end_time, 40.0);

  rs::Engine lax_engine;  // paper default: no enforcement
  const auto finished = lax_engine.run({j}, *fcfs);
  EXPECT_FALSE(finished.completed[0].killed_at_walltime);
  EXPECT_DOUBLE_EQ(finished.completed[0].end_time, 100.0);
}

TEST(WalltimeEnforcement, ExactEstimatesUnaffected) {
  const auto jobs = rw::generate_scenario("homog_short", 10, 5);
  rs::EngineConfig strict;
  strict.enforce_walltime = true;
  rs::Engine engine(strict);
  auto fcfs = rh::make_scheduler("fcfs", 1);
  const auto result = engine.run(jobs, *fcfs);
  for (const auto& c : result.completed) EXPECT_FALSE(c.killed_at_walltime);
}
