#include <gtest/gtest.h>

#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"

namespace rs = reasched::sim;
namespace rc = reasched::sched;

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

struct CtxFixture {
  rs::ClusterState cluster{rs::ClusterSpec::paper_default()};
  std::vector<rs::Job> waiting;
  std::vector<rs::Job> ineligible;
  std::vector<rs::ClusterState::Allocation> running;
  std::vector<rs::CompletedJob> completed;
  bool arrivals_pending = false;

  rs::DecisionContext ctx(double now = 0.0) {
    running = cluster.running_by_end_time();
    return rs::DecisionContext{now,    cluster,   waiting,          ineligible,
                               running, completed, arrivals_pending, waiting.size()};
  }
};
}  // namespace

TEST(Fcfs, StartsHeadWhenItFits) {
  CtxFixture f;
  f.waiting = {make_job(3, 10, 10, 60), make_job(7, 1, 1, 10)};
  rc::FcfsScheduler fcfs;
  EXPECT_EQ(fcfs.decide(f.ctx()), rs::Action::start(3));
}

TEST(Fcfs, DelaysWhenHeadBlockedEvenIfOthersFit) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  f.waiting = {make_job(3, 100, 10, 60), make_job(7, 1, 1, 10)};  // head blocked
  rc::FcfsScheduler fcfs;
  EXPECT_EQ(fcfs.decide(f.ctx()), rs::Action::delay());
}

TEST(Fcfs, StopsWhenQueueDrainedAndNoArrivals) {
  CtxFixture f;
  rc::FcfsScheduler fcfs;
  EXPECT_EQ(fcfs.decide(f.ctx()), rs::Action::stop());
  f.arrivals_pending = true;
  EXPECT_EQ(fcfs.decide(f.ctx()), rs::Action::delay());
}

TEST(Sjf, PicksShortestFittingJob) {
  CtxFixture f;
  f.waiting = {make_job(1, 1, 1, 500), make_job(2, 1, 1, 50), make_job(3, 1, 1, 100)};
  rc::SjfScheduler sjf;
  EXPECT_EQ(sjf.decide(f.ctx()), rs::Action::start(2));
}

TEST(Sjf, TieBreaksByArrival) {
  CtxFixture f;
  f.waiting = {make_job(5, 1, 1, 50, 0.0), make_job(2, 1, 1, 50, 1.0)};
  rc::SjfScheduler sjf;
  // Same walltime: earlier arrival (id 5, submitted first) wins.
  EXPECT_EQ(sjf.decide(f.ctx()), rs::Action::start(5));
}

TEST(Sjf, StrictNoSkipWhenShortestBlocked) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 250, 100, 1000), 0.0);
  // Shortest job needs 100 nodes (blocked); a longer 1-node job would fit.
  f.waiting = {make_job(1, 100, 1, 50), make_job(2, 1, 1, 500)};
  rc::SjfScheduler sjf;
  EXPECT_EQ(sjf.decide(f.ctx()), rs::Action::delay());
}

TEST(EasyBackfill, StartsHeadWhenPossible) {
  CtxFixture f;
  f.waiting = {make_job(1, 10, 10, 60)};
  rc::EasyBackfillScheduler easy;
  EXPECT_EQ(easy.decide(f.ctx()), rs::Action::start(1));
}

TEST(EasyBackfill, BackfillsShortJobThatEndsBeforeShadow) {
  CtxFixture f;
  // Running job holds 200 nodes until t=1000; head needs 100 (blocked).
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  // Candidate ends at t=500 < shadow(1000): safe backfill.
  f.waiting = {make_job(1, 100, 10, 60), make_job(2, 20, 10, 500)};
  rc::EasyBackfillScheduler easy;
  EXPECT_EQ(easy.decide(f.ctx(0.0)), rs::Action::backfill(2));
}

TEST(EasyBackfill, RefusesBackfillThatDelaysHead) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  // Candidate would run past the shadow AND use nodes the head needs at the
  // shadow time (spare = 256 - 100 = 156 nodes; candidate takes 160).
  f.waiting = {make_job(1, 100, 10, 60), make_job(2, 50, 10, 5000)};
  // 50 <= 156 spare nodes -> would be allowed; tighten: candidate wider.
  f.waiting[1] = make_job(2, 49, 10, 5000);
  // Memory spare: 2048-100-10=..., keep memory small. Candidate within spare
  // nodes -> allowed. Make it exceed spare:
  f.waiting[1] = make_job(2, 40, 2000, 5000);  // memory exceeds spare at shadow
  rc::EasyBackfillScheduler easy;
  const auto action = easy.decide(f.ctx(0.0));
  EXPECT_EQ(action, rs::Action::delay());
}

TEST(EasyBackfill, BackfillWithinSpareResourcesAllowedEvenIfLong) {
  CtxFixture f;
  f.cluster.allocate(make_job(99, 200, 100, 1000), 0.0);
  // Head needs 100 nodes at shadow; spare at shadow = 156 nodes. A 10-node
  // long job cannot delay the head.
  f.waiting = {make_job(1, 100, 10, 60), make_job(2, 10, 10, 50000)};
  rc::EasyBackfillScheduler easy;
  EXPECT_EQ(easy.decide(f.ctx(0.0)), rs::Action::backfill(2));
}

TEST(EasyBackfill, SolvesAdversarialConvoy) {
  // End-to-end convoy: a wide blocker runs (200/256 nodes), job 2 (100
  // nodes) blocks the FCFS head, and the remaining 40-node shorts must be
  // backfilled through the 56-node gap instead of idling behind job 2.
  std::vector<rs::Job> jobs = {make_job(1, 200, 512, 1000)};
  jobs.push_back(make_job(2, 100, 8, 50, 1.0));  // head blocker behind job 1
  for (int i = 3; i <= 10; ++i) jobs.push_back(make_job(i, 40, 4, 60, 2.0));
  rs::Engine engine;
  rc::EasyBackfillScheduler easy;
  const auto result = engine.run(jobs, easy);
  EXPECT_EQ(result.completed.size(), 10u);
  EXPECT_GT(result.n_backfills, 0u);
  // The backfilled shorts finished before the wide blocker released.
  EXPECT_LT(result.find(3).end_time, result.find(1).end_time);

  // FCFS on the same instance leaves the gap idle: every short job waits
  // for job 2, so the first short ends much later.
  rc::FcfsScheduler fcfs;
  const auto fcfs_result = engine.run(jobs, fcfs);
  EXPECT_GT(fcfs_result.find(3).end_time, result.find(3).end_time);
}

TEST(Schedulers, NamesAreStable) {
  EXPECT_EQ(rc::FcfsScheduler().name(), "FCFS");
  EXPECT_EQ(rc::SjfScheduler().name(), "SJF");
  EXPECT_EQ(rc::EasyBackfillScheduler().name(), "EASY-Backfill");
}

TEST(EasyBackfill, LateTimeToleranceAdmitsBackfill) {
  // Regression for the absolute 1e-9 epsilons the shadow-time comparison
  // used to carry: at t0 ~ 1e7 s one ulp is already ~2e-9, so a candidate
  // whose finish lands within floating-point noise of the shadow (here
  // 1e-7 s over, far below any physically meaningful margin at that scale)
  // was rejected. The relative tol_leq tolerance (~1e-5 at 1e7 s) admits it.
  const double t0 = 1.0e7;
  std::vector<rs::Job> jobs;
  // Blocker: holds 200 of 256 nodes until t0 + 1000.
  jobs.push_back(make_job(1, 200, 10, 1000.0, t0));
  // Head: 250 nodes - must wait for the blocker; shadow time is t0 + 1000
  // and only 6 nodes are spare once it starts.
  jobs.push_back(make_job(2, 250, 10, 100.0, t0 + 10.0));
  // Candidate: fits now (56 free), exceeds the 6 spare nodes, and finishes
  // 1e-7 s past the shadow - eligible only through the relative tolerance.
  jobs.push_back(make_job(3, 40, 10, 990.0 + 1e-7, t0 + 10.0));

  rc::EasyBackfillScheduler easy;
  rs::Engine engine;
  const auto result = engine.run(jobs, easy);

  EXPECT_EQ(result.n_backfills, 1u);
  EXPECT_DOUBLE_EQ(result.find(3).start_time, t0 + 10.0);  // backfilled immediately
  // The tolerance-admitted backfill really did not delay the head: its
  // completion batches with the blocker's (same relative event window) and
  // the head starts at its shadow time.
  EXPECT_DOUBLE_EQ(result.find(2).start_time, t0 + 1000.0);
}

TEST(EasyBackfill, SmallScaleToleranceStillRejectsRealDelays) {
  // At small time scales the tolerance floor stays at the seed's 1e-9, so a
  // candidate overshooting the shadow by a physically meaningful margin is
  // still refused (no spare capacity for it either).
  std::vector<rs::Job> jobs;
  jobs.push_back(make_job(1, 200, 10, 1000.0, 0.0));
  jobs.push_back(make_job(2, 250, 10, 100.0, 10.0));
  jobs.push_back(make_job(3, 40, 10, 990.1, 10.0));  // 0.1 s past the shadow

  rc::EasyBackfillScheduler easy;
  rs::Engine engine;
  const auto result = engine.run(jobs, easy);

  EXPECT_EQ(result.n_backfills, 0u);
  EXPECT_GE(result.find(3).start_time, 1000.0);  // waited for the head
}
