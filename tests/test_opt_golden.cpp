// Golden differential regression for the optimizer layer: every src/opt
// solver, run over the zero-copy ProblemView at real engine decision points,
// must reproduce the copying Problem::from_context oracle bit-for-bit - and
// the OptimizingScheduler's full decision trace must be identical between
// the engine's indexed views and owned copies of every context
// (CopiedContextScheduler) at an unbounded (K=0) window. Combined
// with test_sim_engine_golden / test_sched_policy_golden this extends the
// bit-identical guarantee to the last layer that still copied per decision.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "decision_context_test_helper.hpp"
#include "opt/branch_and_bound.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "opt/simulated_annealing.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/scenario_spec.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;
namespace rw = reasched::workload;
namespace ru = reasched::util;

namespace {

void expect_same_plan(const ro::PlannedSchedule& got, const ro::PlannedSchedule& want,
                      const char* solver) {
  SCOPED_TRACE(solver);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.start_times, want.start_times);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.total_wait, want.total_wait);
}

/// Runs every solver on both problem representations at each decision
/// point (bounded count/queue size to keep the suite fast) and asserts
/// bitwise-identical plans, then advances the simulation FCFS-style.
class SolverDifferentialProbe final : public rs::Scheduler {
 public:
  rs::Action decide(const rs::DecisionContext& ctx) override {
    if (ctx.waiting.size() >= 2 && compared_ < 15) {
      ++compared_;
      const ro::Problem oracle = ro::Problem::from_context(ctx);
      const ro::ProblemView oracle_view{oracle};
      const ro::ProblemView view = ro::ProblemView::from_context(ctx);
      const ro::ObjectiveWeights weights;

      // Seed orderings + decoder.
      EXPECT_EQ(ro::order_by_arrival(view), ro::order_by_arrival(oracle_view));
      EXPECT_EQ(ro::order_spt(view), ro::order_spt(oracle_view));
      EXPECT_EQ(ro::order_lpt(view), ro::order_lpt(oracle_view));
      EXPECT_EQ(ro::order_widest(view), ro::order_widest(oracle_view));
      const auto spt = ro::order_spt(view);
      expect_same_plan(ro::decode_order(view, spt), ro::decode_order(oracle_view, spt),
                       "list/decode");

      // Branch-and-bound (exact).
      ro::BnbConfig bnb;
      bnb.max_nodes = 5000;
      const auto bnb_view = ro::branch_and_bound(view, weights, bnb);
      const auto bnb_oracle = ro::branch_and_bound(oracle_view, weights, bnb);
      EXPECT_EQ(bnb_view.order, bnb_oracle.order);
      EXPECT_EQ(bnb_view.score, bnb_oracle.score);
      EXPECT_EQ(bnb_view.explored, bnb_oracle.explored);

      // Local search (deterministic).
      const auto ls_view = ro::local_search(view, spt, weights, 300);
      const auto ls_oracle = ro::local_search(oracle_view, spt, weights, 300);
      EXPECT_EQ(ls_view.order, ls_oracle.order);
      EXPECT_EQ(ls_view.score, ls_oracle.score);
      EXPECT_EQ(ls_view.evaluations, ls_oracle.evaluations);

      // Stochastic solver: identical seeds must give identical streams,
      // because the data it evaluates is bitwise identical.
      {
        ro::SaConfig config;
        config.iterations = 250;
        ru::Rng rng_a(compared_), rng_b(compared_);
        const auto a = ro::simulated_annealing(view, spt, weights, config, rng_a);
        const auto b = ro::simulated_annealing(oracle_view, spt, weights, config, rng_b);
        EXPECT_EQ(a.order, b.order);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.accepted_moves, b.accepted_moves);
      }
    }

    if (!ctx.waiting.empty() && ctx.cluster.fits(ctx.waiting.front())) {
      return rs::Action::start(ctx.waiting.front().id);
    }
    if (ctx.waiting.empty() && ctx.ineligible.empty() && !ctx.arrivals_pending) {
      return rs::Action::stop();
    }
    return rs::Action::delay();
  }
  std::string name() const override { return "SolverDifferentialProbe"; }

  std::size_t compared() const { return compared_; }

 private:
  std::size_t compared_ = 0;
};

void expect_identical_schedules(const rs::ScheduleResult& got, const rs::ScheduleResult& want,
                                const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.n_decisions, want.n_decisions);
  EXPECT_EQ(got.n_invalid_actions, want.n_invalid_actions);
  EXPECT_EQ(got.n_forced_delays, want.n_forced_delays);
  EXPECT_EQ(got.n_backfills, want.n_backfills);
  EXPECT_DOUBLE_EQ(got.final_time, want.final_time);

  ASSERT_EQ(got.completed.size(), want.completed.size());
  for (std::size_t i = 0; i < got.completed.size(); ++i) {
    ASSERT_EQ(got.completed[i].job.id, want.completed[i].job.id);
    EXPECT_DOUBLE_EQ(got.completed[i].start_time, want.completed[i].start_time)
        << "job " << got.completed[i].job.id;
  }
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.decisions[i].time, want.decisions[i].time) << "decision " << i;
    EXPECT_EQ(got.decisions[i].action, want.decisions[i].action) << "decision " << i;
    EXPECT_EQ(got.decisions[i].accepted, want.decisions[i].accepted) << "decision " << i;
  }
}

void run_optimizer_golden(const std::vector<rs::Job>& jobs, const std::string& label) {
  rs::Engine engine;
  ro::OptimizingSchedulerConfig config;
  config.seed = 17;
  ro::OptimizingScheduler view_path(config);
  ro::OptimizingScheduler copied(config);
  reasched::testing::CopiedContextScheduler oracle_path(copied);
  const auto got = engine.run(jobs, view_path);
  const auto want = engine.run(jobs, oracle_path);
  expect_identical_schedules(got, want, label);
  EXPECT_EQ(view_path.replans(), copied.replans()) << label;
}

}  // namespace

TEST(OptGolden, EverySolverMatchesTheCopyingOracleAtEngineDecisionPoints) {
  // Scenarios picked for genuinely deep queues under an FCFS-style probe
  // (Adversarial drains instantly - every job fits on arrival).
  for (const auto& [scenario, seed] :
       {std::pair{"hetero_mix", std::uint64_t{7}},
        std::pair{"long_job", std::uint64_t{23}},
        std::pair{"high_parallel", std::uint64_t{11}}}) {
    SolverDifferentialProbe probe;
    rs::Engine engine;
    engine.run(rw::generate_scenario(scenario, 60, seed), probe);
    EXPECT_GT(probe.compared(), 0u) << scenario;
  }
}

TEST(OptGolden, OptimizingSchedulerViewPathMatchesOracleOnScenarios) {
  const struct {
    const char* scenario;
    std::uint64_t seed;
  } cases[] = {{"hetero_mix", 7},
               {"high_parallel", 11},
               {"long_job", 23},
               {"bursty_idle", 13}};
  for (const auto& c : cases) {
    for (const std::size_t n : {30u, 90u}) {
      run_optimizer_golden(rw::generate_scenario(c.scenario, n, c.seed),
                           std::string(c.scenario) + "/" + std::to_string(n));
    }
  }
}

TEST(OptGolden, OptimizingSchedulerOracleSurvivesDependencyPromotions) {
  // Promotions feed the waiting set mid-run, so the view borrows indexes
  // that just mutated; the oracle must still see identical snapshots.
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
  add(4, 16, 64, 30, 5.0, {2, 3});
  add(5, 8, 32, 200, 10.0);
  add(6, 128, 512, 40, 20.0, {4});
  add(7, 4, 16, 15, 25.0);
  add(8, 4, 16, 15, 400.0, {6, 7});
  run_optimizer_golden(jobs, "dag");
}
