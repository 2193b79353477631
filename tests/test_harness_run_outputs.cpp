#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hpp"
#include "metrics/gantt.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
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
  const auto jobs = rw::generate_scenario("hetero_mix", 30, 7);
  const auto outcome = rh::run_method(jobs, "fcfs", 7);
  rm::GanttOptions options;
  options.max_rows = 5;
  const std::string gantt =
      rm::render_gantt(outcome.schedule, rs::ClusterSpec::paper_default(), options);
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 7);  // 5 rows + header + util
}

TEST(Gantt, UtilizationProfileBounds) {
  const auto outcome = sample_outcome("opt:portfolio");
  const std::string profile = rm::render_utilization_profile(
      outcome.schedule, rs::ClusterSpec::paper_default(), 40);
  EXPECT_EQ(profile.size(), 40u);
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

TEST(DiurnalArrivals, CyclesDayAndNight) {
  std::vector<rs::Job> jobs(4000);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<int>(i + 1);
    jobs[i].duration = jobs[i].walltime = 10;
    jobs[i].nodes = 1;
  }
  reasched::util::Rng rng(3);
  const double day = 86400.0;
  reasched::workload::assign_diurnal_arrivals(jobs, 60.0, day, 5.0, rng);
  // Count arrivals in day-phase [0, day/2) vs night-phase [day/2, day) of
  // the first cycle: intensity peaks mid-day, so days must be busier.
  std::size_t day_count = 0, night_count = 0;
  for (const auto& j : jobs) {
    if (j.submit_time >= day) break;
    (j.submit_time < day / 2 ? day_count : night_count)++;
  }
  EXPECT_GT(day_count, night_count * 2);
  // Monotone arrival times.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
  }
}

TEST(DiurnalArrivals, RejectsBadParameters) {
  std::vector<rs::Job> jobs(1);
  reasched::util::Rng rng(1);
  EXPECT_THROW(reasched::workload::assign_diurnal_arrivals(jobs, 0.0, 100, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(reasched::workload::assign_diurnal_arrivals(jobs, 10, 100, 0.5, rng),
               std::invalid_argument);
}
