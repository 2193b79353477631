#include <gtest/gtest.h>

#include "decision_context_test_helper.hpp"
#include "llm/decision_policy.hpp"
#include "util/rng.hpp"

namespace rl = reasched::llm;
namespace rs = reasched::sim;
using reasched::testing::CtxFixture;
using reasched::testing::make_job;

namespace {
rl::PolicyTemperament quiet_temperament() {
  rl::PolicyTemperament t;
  t.decision_noise = 0.0;
  t.hallucination_rate = 0.0;
  return t;
}
}  // namespace

TEST(DecisionPolicy, StopsWhenAllScheduled) {
  CtxFixture f;
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(100.0), {}, rng);
  EXPECT_EQ(d.action, rs::Action::stop());
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kStopDone);
}

TEST(DecisionPolicy, DelaysWhileArrivalsPending) {
  CtxFixture f;
  f.arrivals_pending = true;
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), {}, rng);
  EXPECT_EQ(d.action, rs::Action::delay());
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kDelayIdle);
}

TEST(DecisionPolicy, DelaysWhenNothingFits) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 256, 100, 1000), 0.0);
  f.waiting = {make_job(1, 10, 10, 100)};
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), {}, rng);
  EXPECT_EQ(d.action, rs::Action::delay());
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kDelayNoFit);
  EXPECT_DOUBLE_EQ(d.next_release_time, 1000.0);
}

TEST(DecisionPolicy, StartsTheOnlyFittingJob) {
  CtxFixture f;
  f.waiting = {make_job(1, 10, 10, 100)};
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), {}, rng);
  EXPECT_EQ(d.action, rs::Action::start(1));
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kStartBest);
  ASSERT_FALSE(d.scored.empty());
  EXPECT_EQ(d.scored.front().id, 1);
}

TEST(DecisionPolicy, LabelsOpportunisticStartAsBackfill) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  // Head (100 nodes) blocked; a small later job fits -> BackfillJob.
  f.waiting = {make_job(1, 100, 10, 100, 0.0), make_job(2, 5, 5, 50, 1.0)};
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(10.0), {}, rng);
  EXPECT_EQ(d.action, rs::Action::backfill(2));
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kBackfill);
  EXPECT_EQ(d.blocked_head, 1);
  EXPECT_GT(d.shadow_time, 10.0);
}

TEST(DecisionPolicy, SkipsRecentlyRejectedJobs) {
  CtxFixture f;
  f.waiting = {make_job(1, 10, 10, 100), make_job(2, 10, 10, 100)};
  rl::PromptContext pctx;
  pctx.recently_rejected = {1};
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), pctx, rng);
  EXPECT_EQ(d.action, rs::Action::start(2));  // 1 excluded by feedback
}

TEST(DecisionPolicy, AllRejectedMeansDelay) {
  CtxFixture f;
  f.waiting = {make_job(1, 10, 10, 100)};
  rl::PromptContext pctx;
  pctx.recently_rejected = {1};
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  EXPECT_EQ(policy.decide(f.ctx(), pctx, rng).action, rs::Action::delay());
}

TEST(DecisionPolicy, HallucinatesBlockedJobAtRateOne) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  f.waiting = {make_job(1, 100, 10, 100), make_job(2, 5, 5, 50)};
  auto t = quiet_temperament();
  t.hallucination_rate = 1.0;
  const rl::DecisionPolicy policy(t);
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), {}, rng);
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kHallucinated);
  EXPECT_EQ(d.action, rs::Action::start(1));  // the infeasible one
}

TEST(DecisionPolicy, FairnessTemperamentPrefersStarvedUser) {
  CtxFixture f;
  // user 2 already served; user 3 starved. Jobs otherwise near-identical.
  f.completed.push_back({make_job(50, 1, 1, 10, 0.0, /*user=*/2), 0.0, 10.0});
  f.waiting = {make_job(1, 10, 10, 100, 0.0, /*user=*/2),
               make_job(2, 10, 10, 100, 0.0, /*user=*/3)};
  auto fair = quiet_temperament();
  fair.w_fairness = 1.0;
  fair.w_makespan = fair.w_throughput = fair.w_utilization = 0.0;
  const rl::DecisionPolicy policy(fair);
  reasched::util::Rng rng(1);
  EXPECT_EQ(policy.decide(f.ctx(50.0), {}, rng).action, rs::Action::start(2));
}

TEST(DecisionPolicy, ThroughputTemperamentPrefersShortJob) {
  CtxFixture f;
  f.waiting = {make_job(1, 10, 10, 5000), make_job(2, 10, 10, 50)};
  auto greedy = quiet_temperament();
  greedy.w_throughput = 1.0;
  greedy.w_fairness = greedy.w_makespan = greedy.w_utilization = 0.0;
  const rl::DecisionPolicy policy(greedy);
  reasched::util::Rng rng(1);
  EXPECT_EQ(policy.decide(f.ctx(), {}, rng).action, rs::Action::start(2));
}

TEST(DecisionPolicy, MakespanTemperamentPrefersLongWideJob) {
  CtxFixture f;
  f.waiting = {make_job(1, 128, 10, 5000), make_job(2, 1, 10, 50)};
  auto lpt = quiet_temperament();
  lpt.w_makespan = 1.0;
  lpt.w_fairness = lpt.w_throughput = lpt.w_utilization = 0.0;
  const rl::DecisionPolicy policy(lpt);
  reasched::util::Rng rng(1);
  EXPECT_EQ(policy.decide(f.ctx(), {}, rng).action, rs::Action::start(1));
}

TEST(DecisionPolicy, ReservationDelaysForPressuredHead) {
  CtxFixture f;
  // Running job holds 200 nodes until t=6000; at t=5000 the head (100
  // nodes) is blocked with head_pressure saturated (waited 5000 s vs ~800 s
  // average walltime). The only fitting candidate would run until t=6500,
  // past the head's shadow (t=6000), so a reservation-minded policy waits.
  f.cluster.allocate(make_job(99, 200, 100, 6000), 0.0);
  f.waiting = {make_job(1, 100, 10, 100, 0.0), make_job(2, 40, 5, 1500, 1.0)};
  auto t = quiet_temperament();
  t.reservation_pressure = 1.0;
  t.w_fairness = 0.4;
  const rl::DecisionPolicy policy(t);
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(5000.0), {}, rng);
  EXPECT_EQ(d.action, rs::Action::delay());
  EXPECT_EQ(d.kind, rl::PolicyDecision::Kind::kDelayReserve);
  EXPECT_EQ(d.blocked_head, 1);
}

TEST(DecisionPolicy, NoiseZeroIsDeterministic) {
  CtxFixture f;
  for (int i = 1; i <= 8; ++i) f.waiting.push_back(make_job(i, 4, 8, 100.0 + i));
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng1(1), rng2(2);
  EXPECT_EQ(policy.decide(f.ctx(), {}, rng1).action,
            policy.decide(f.ctx(), {}, rng2).action);
}

TEST(DecisionPolicy, ScoresSortedDescending) {
  CtxFixture f;
  for (int i = 1; i <= 6; ++i) {
    f.waiting.push_back(make_job(i, 4 * i, 8, 50.0 * i));
  }
  const rl::DecisionPolicy policy(quiet_temperament());
  reasched::util::Rng rng(1);
  const auto d = policy.decide(f.ctx(), {}, rng);
  for (std::size_t i = 1; i < d.scored.size(); ++i) {
    EXPECT_GE(d.scored[i - 1].total, d.scored[i].total);
  }
}
