// Golden policy-equivalence regression: the indexed SJF and EASY policies
// (walltime-ordered waiting index, arrival-rank backfill segment tree,
// release-prefix shadow aggregates) must reproduce the pre-index linear-scan
// policies bit-for-bit. Both variants run on the same indexed Engine, so any
// divergence is the indexing itself; combined with test_sim_engine_golden
// (same policies across both engines) this pins the full decision pipeline.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/easy_backfill.hpp"
#include "sched/linear_reference.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"
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

  ASSERT_EQ(got.completed.size(), want.completed.size());
  for (std::size_t i = 0; i < got.completed.size(); ++i) {
    const auto& g = got.completed[i];
    const auto& w = want.completed[i];
    ASSERT_EQ(g.job.id, w.job.id);
    EXPECT_DOUBLE_EQ(g.start_time, w.start_time) << "job " << g.job.id;
    EXPECT_DOUBLE_EQ(g.end_time, w.end_time) << "job " << g.job.id;
    EXPECT_EQ(g.killed_at_walltime, w.killed_at_walltime) << "job " << g.job.id;
  }

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
  struct Pair {
    const char* name;
    std::unique_ptr<rs::Scheduler> indexed;
    std::unique_ptr<rs::Scheduler> linear;
  };
  Pair pairs[] = {{"SJF", std::make_unique<rc::SjfScheduler>(),
                   std::make_unique<rc::LinearSjfScheduler>()},
                  {"EASY", std::make_unique<rc::EasyBackfillScheduler>(),
                   std::make_unique<rc::LinearEasyBackfillScheduler>()}};
  for (auto& p : pairs) {
    rs::Engine engine(config);
    const auto got = engine.run(jobs, *p.indexed);
    const auto want = engine.run(jobs, *p.linear);
    expect_identical(got, want, label + "/" + p.name);
  }
}

}  // namespace

TEST(PolicyGolden, GeneratedScenarios) {
  // Long-Job Dominant and Adversarial keep the queue head blocked for long
  // stretches - the regime where EASY actually backfills; Heterogeneous Mix
  // and High Parallelism vary walltimes and demands for the SJF index.
  const struct {
    const char* scenario;
    std::uint64_t seed;
  } cases[] = {{"hetero_mix", 7},
               {"high_parallel", 11},
               {"long_job", 23},
               {"adversarial", 29},
               {"bursty_idle", 13}};
  for (const auto& c : cases) {
    for (const std::size_t n : {40u, 120u}) {
      run_golden(rw::generate_scenario(c.scenario, n, c.seed),
                 std::string(c.scenario) + "/" + std::to_string(n));
    }
  }
}

TEST(PolicyGolden, NoisyWalltimeEstimates) {
  // Over-requested walltimes decouple SJF's order key from true durations
  // and stretch EASY's shadow windows.
  rw::GenerateOptions options;
  options.walltime_factor_min = 1.1;
  options.walltime_factor_max = 3.0;
  for (const std::size_t n : {60u, 150u}) {
    run_golden(rw::generate_scenario("hetero_mix", n, 31, options),
               "noisy/" + std::to_string(n));
  }
}

TEST(PolicyGolden, DependencyDag) {
  // The waiting set here is fed by promotions (blocked -> waiting), not just
  // arrivals, so index maintenance on every transition path is exercised.
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

TEST(PolicyGolden, WalltimeEnforcement) {
  auto jobs = rw::generate_scenario("hetero_mix", 40, 17);
  for (std::size_t i = 0; i < jobs.size(); i += 3) {
    jobs[i].walltime = jobs[i].duration * 0.5;  // underestimate
  }
  rs::EngineConfig config;
  config.enforce_walltime = true;
  run_golden(jobs, "walltime", config);
}

TEST(PolicyGolden, LargeSimulationTimes) {
  // At ~1e7 s the relative tol_leq comparisons and the release-prefix
  // binary search must agree with the linear walk to the last bit.
  for (const auto scenario : {"hetero_mix", "adversarial"}) {
    auto jobs = rw::generate_scenario(scenario, 60, 19);
    for (auto& j : jobs) j.submit_time += 1.0e7;
    run_golden(jobs, std::string("late-times/") + scenario);
  }
}
