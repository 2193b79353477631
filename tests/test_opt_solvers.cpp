#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "opt/branch_and_bound.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "opt/simulated_annealing.hpp"
#include "sched/fcfs.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;

namespace {
rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  return j;
}

ro::Problem random_problem(reasched::util::Rng& rng, std::size_t n) {
  ro::Problem p;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  for (std::size_t i = 0; i < n; ++i) {
    p.jobs.push_back(make_job(static_cast<int>(i + 1),
                              static_cast<int>(rng.uniform_int(1, 200)),
                              rng.uniform_real(1.0, 1024.0),
                              rng.uniform_real(10.0, 400.0)));
  }
  return p;
}

double brute_force_best(const ro::Problem& p, const ro::ObjectiveWeights& w) {
  std::vector<std::size_t> order(p.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, ro::evaluate(ro::decode_order(p, order), w));
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}
}  // namespace

// The headline solver guarantee: B&B matches exhaustive enumeration over the
// list-schedule space on small random instances.
class BnbExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbExactness, MatchesBruteForce) {
  reasched::util::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto p = random_problem(rng, n);
  const ro::ObjectiveWeights w;  // pure makespan
  const auto exact = ro::branch_and_bound(p, w);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_NEAR(exact.score, brute_force_best(p, w), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbExactness, ::testing::Range<std::uint64_t>(0, 20));

TEST(Bnb, TrivialInstances) {
  ro::Problem p;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  const ro::ObjectiveWeights w;
  const auto empty = ro::branch_and_bound(p, w);
  EXPECT_TRUE(empty.proven_optimal);
  EXPECT_TRUE(empty.order.empty());

  p.jobs.push_back(make_job(1, 10, 10, 100));
  const auto single = ro::branch_and_bound(p, w);
  EXPECT_DOUBLE_EQ(single.score, 100.0);
}

TEST(Bnb, BudgetCapReported) {
  reasched::util::Rng rng(123);
  const auto p = random_problem(rng, 9);
  ro::BnbConfig config;
  config.max_nodes = 5;  // absurdly small
  const auto capped = ro::branch_and_bound(p, {}, config);
  EXPECT_FALSE(capped.proven_optimal);
  EXPECT_FALSE(capped.order.empty());  // still returns the incumbent
}

TEST(LocalSearch, NeverWorseThanSeed) {
  reasched::util::Rng rng(5);
  const auto p = random_problem(rng, 12);
  const ro::ObjectiveWeights w;
  const auto seed = ro::order_by_arrival(p);
  const double seed_score = ro::evaluate(ro::decode_order(p, seed), w);
  const auto improved = ro::local_search(p, seed, w);
  EXPECT_LE(improved.score, seed_score + 1e-9);
  EXPECT_GT(improved.evaluations, 0u);
}

TEST(LocalSearch, RespectsEvaluationBudget) {
  reasched::util::Rng rng(6);
  const auto p = random_problem(rng, 15);
  const auto r = ro::local_search(p, ro::order_by_arrival(p), {}, 50);
  EXPECT_LE(r.evaluations, 50u);
}

TEST(SimulatedAnnealing, NeverWorseThanSeedAndDeterministic) {
  reasched::util::Rng rng(7);
  const auto p = random_problem(rng, 14);
  const ro::ObjectiveWeights w;
  const auto seed = ro::order_by_arrival(p);
  const double seed_score = ro::evaluate(ro::decode_order(p, seed), w);

  ro::SaConfig config;
  config.iterations = 800;
  reasched::util::Rng sa_rng1(11), sa_rng2(11), sa_rng3(12);
  const auto r1 = ro::simulated_annealing(p, seed, w, config, sa_rng1);
  const auto r2 = ro::simulated_annealing(p, seed, w, config, sa_rng2);
  EXPECT_LE(r1.score, seed_score + 1e-9);
  EXPECT_EQ(r1.order, r2.order);  // same rng seed -> same trajectory
  EXPECT_EQ(r1.score, r2.score);
  const auto r3 = ro::simulated_annealing(p, seed, w, config, sa_rng3);
  (void)r3;  // different seed may differ; just must not crash
}

TEST(SimulatedAnnealing, FindsKnownPackingImprovement) {
  // Arrival order wastes the cluster: two 128-node jobs could run together.
  ro::Problem p;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  p.jobs = {make_job(1, 128, 10, 100), make_job(2, 256, 10, 100),
            make_job(3, 128, 10, 100)};
  const std::vector<std::size_t> bad = {0, 1, 2};  // 1 | 2 | 3 -> makespan 300
  const ro::ObjectiveWeights w;
  EXPECT_DOUBLE_EQ(ro::evaluate(ro::decode_order(p, bad), w), 300.0);
  ro::SaConfig config;
  config.iterations = 500;
  reasched::util::Rng rng(3);
  const auto r = ro::simulated_annealing(p, bad, w, config, rng);
  EXPECT_DOUBLE_EQ(r.score, 200.0);  // 1+3 together, then 2
}

TEST(OptimizingScheduler, CompletesAndBeatsFcfsOnPackableInstance) {
  // Alternating wide/narrow jobs where FCFS head-of-line blocking hurts.
  std::vector<rs::Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(i % 2 == 0 ? make_job(i + 1, 250, 100, 100)
                              : make_job(i + 1, 6, 10, 100));
  }
  rs::Engine engine;
  reasched::sched::FcfsScheduler fcfs;
  const auto fcfs_result = engine.run(jobs, fcfs);

  ro::OptimizingSchedulerConfig config;
  config.seed = 1;
  ro::OptimizingScheduler opt(config);
  const auto opt_result = engine.run(jobs, opt);

  ASSERT_EQ(opt_result.completed.size(), jobs.size());
  EXPECT_LE(opt_result.final_time, fcfs_result.final_time + 1e-9);
  EXPECT_GT(opt.replans(), 0u);
}

TEST(OptimizingScheduler, HandlesDynamicArrivals) {
  std::vector<rs::Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i + 1, 32 + (i % 4) * 32, 64, 200.0 + i, i * 20.0));
  }
  ro::OptimizingScheduler opt;
  rs::Engine engine;
  const auto result = engine.run(jobs, opt);
  EXPECT_EQ(result.completed.size(), jobs.size());
  EXPECT_EQ(result.n_invalid_actions, 0u);  // planner never proposes infeasible
}

TEST(OptimizingScheduler, ResetRestoresDeterminism) {
  const auto jobs = [&] {
    std::vector<rs::Job> v;
    for (int i = 0; i < 20; ++i) v.push_back(make_job(i + 1, 64, 128, 100.0 + 7 * i));
    return v;
  }();
  ro::OptimizingSchedulerConfig config;
  config.seed = 9;
  ro::OptimizingScheduler opt(config);
  rs::Engine engine;
  const auto r1 = engine.run(jobs, opt);
  const auto r2 = engine.run(jobs, opt);  // engine calls reset()
  for (std::size_t i = 0; i < r1.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.completed[i].start_time, r2.completed[i].start_time);
  }
}

TEST(Objective, WeightsCompose) {
  ro::PlannedSchedule plan;
  plan.makespan = 100.0;
  plan.total_wait = 10.0;
  EXPECT_DOUBLE_EQ(ro::evaluate(plan, {}), 100.0);  // pure makespan
  EXPECT_DOUBLE_EQ(ro::evaluate(plan, {2.0}), 120.0);
}
