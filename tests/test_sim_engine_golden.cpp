// Golden determinism regression: the indexed Engine must reproduce the seed
// engine's behaviour bit-for-bit. ReferenceEngine preserves the seed's data
// structures and algorithms, so running both over the same workloads and
// comparing full decision traces proves the refactor changed cost, not
// semantics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "workload/scenario_spec.hpp"

namespace rs = reasched::sim;
namespace rc = reasched::sched;
namespace rw = reasched::workload;

namespace {

void expect_identical(const rs::ScheduleResult& got, const rs::ScheduleResult& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.n_decisions, want.n_decisions);
  EXPECT_EQ(got.n_invalid_actions, want.n_invalid_actions);
  EXPECT_EQ(got.n_forced_delays, want.n_forced_delays);
  EXPECT_EQ(got.n_backfills, want.n_backfills);
  EXPECT_DOUBLE_EQ(got.final_time, want.final_time);

  // Completion records (sorted by job id in both engines): identical
  // schedules, including walltime-kill flags.
  ASSERT_EQ(got.completed.size(), want.completed.size());
  for (std::size_t i = 0; i < got.completed.size(); ++i) {
    const auto& g = got.completed[i];
    const auto& w = want.completed[i];
    ASSERT_EQ(g.job.id, w.job.id);
    EXPECT_DOUBLE_EQ(g.start_time, w.start_time) << "job " << g.job.id;
    EXPECT_DOUBLE_EQ(g.end_time, w.end_time) << "job " << g.job.id;
    EXPECT_EQ(g.killed_at_walltime, w.killed_at_walltime) << "job " << g.job.id;
  }

  // The full decision sequence: same queries, same actions, same order,
  // same verdicts. This is the strongest form of "same decisions".
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    const auto& g = got.decisions[i];
    const auto& w = want.decisions[i];
    EXPECT_DOUBLE_EQ(g.time, w.time) << "decision " << i;
    EXPECT_EQ(g.action, w.action) << "decision " << i;
    EXPECT_EQ(g.accepted, w.accepted) << "decision " << i;
  }
}

void run_golden(const std::vector<rs::Job>& jobs, const std::string& label,
                const rs::EngineConfig& config = {}) {
  struct Method {
    const char* name;
    std::unique_ptr<rs::Scheduler> scheduler;
  };
  Method methods[] = {{"FCFS", std::make_unique<rc::FcfsScheduler>()},
                      {"SJF", std::make_unique<rc::SjfScheduler>()},
                      {"EASY", std::make_unique<rc::EasyBackfillScheduler>()}};
  for (auto& m : methods) {
    rs::Engine engine(config);
    rs::ReferenceEngine reference(config);
    const auto got = engine.run(jobs, *m.scheduler);
    const auto want = reference.run(jobs, *m.scheduler);
    expect_identical(got, want, label + "/" + m.name);
  }
}

}  // namespace

TEST(EngineGolden, HeterogeneousMix) {
  for (const std::size_t n : {40u, 120u}) {
    run_golden(rw::generate_scenario("hetero_mix", n, 7),
               "hetmix/" + std::to_string(n));
  }
}

TEST(EngineGolden, HighParallelism) {
  for (const std::size_t n : {40u, 120u}) {
    run_golden(rw::generate_scenario("high_parallel", n, 11),
               "highpar/" + std::to_string(n));
  }
}

TEST(EngineGolden, BurstyIdle) {
  for (const std::size_t n : {40u, 120u}) {
    run_golden(rw::generate_scenario("bursty_idle", n, 13),
               "bursty/" + std::to_string(n));
  }
}

TEST(EngineGolden, DependencyDag) {
  // Scenario generators emit independent jobs; cover the dependency-counter
  // promotion path explicitly with a layered DAG: chains, a fan-out and a
  // diamond join, interleaved with independent arrivals.
  std::vector<rs::Job> jobs;
  auto add = [&](int id, int nodes, double mem, double dur, double submit,
                 std::vector<rs::JobId> deps = {}) {
    rs::Job j;
    j.id = id;
    j.nodes = nodes;
    j.memory_gb = mem;
    j.duration = dur;
    j.walltime = dur;
    j.submit_time = submit;
    j.user = 1 + id % 4;
    j.dependencies = std::move(deps);
    jobs.push_back(j);
  };
  add(1, 64, 256, 120, 0.0);
  add(2, 32, 128, 60, 0.0, {1});
  add(3, 32, 128, 45, 0.0, {1});
  add(4, 16, 64, 30, 5.0, {2, 3});   // diamond join
  add(5, 8, 32, 200, 10.0);          // independent long job
  add(6, 128, 512, 40, 20.0, {4});
  add(7, 4, 16, 15, 25.0);
  add(8, 4, 16, 15, 400.0, {6, 7});  // arrives after some deps finished
  add(9, 200, 1024, 80, 0.0);
  add(10, 8, 32, 10, 0.0, {9});
  run_golden(jobs, "dag");
}

TEST(EngineGolden, WalltimeEnforcement) {
  // Underestimated jobs are killed at their walltime in both engines.
  auto jobs = rw::generate_scenario("hetero_mix", 40, 17);
  for (std::size_t i = 0; i < jobs.size(); i += 3) {
    jobs[i].walltime = jobs[i].duration * 0.5;  // underestimate
  }
  rs::EngineConfig config;
  config.enforce_walltime = true;
  run_golden(jobs, "walltime", config);
}

TEST(EngineGolden, LargeSimulationTimes) {
  // The relative event tolerance must keep batching consistent at Polaris
  // time scales (~1e7 s), where the seed's absolute 1e-12 is below one ulp.
  auto jobs = rw::generate_scenario("hetero_mix", 60, 19);
  for (auto& j : jobs) j.submit_time += 1.0e7;
  run_golden(jobs, "late-times");
}
