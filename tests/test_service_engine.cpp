#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/service_engine.hpp"
#include "sim/engine.hpp"
#include "workload/arrival_stream.hpp"
#include "workload/scenario_spec.hpp"

namespace rsvc = reasched::service;
namespace rs = reasched::sim;
namespace rw = reasched::workload;

namespace {

rs::Job make_job(int id, double submit, double duration, int nodes = 4,
                 double mem = 16.0) {
  rs::Job j;
  j.id = id;
  j.submit_time = submit;
  j.duration = duration;
  j.walltime = duration;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.user = 1 + id % 3;
  return j;
}

rsvc::ServiceConfig fcfs_config(std::uint64_t seed = 7) {
  rsvc::ServiceConfig config;
  config.method = "fcfs";
  config.seed = seed;
  return config;
}

}  // namespace

TEST(ServiceEngine, AssignsSequentialIdsWhenClientLeavesIdZero) {
  rsvc::ServiceEngine engine(fcfs_config());
  EXPECT_EQ(engine.submit(make_job(0, 0.0, 60.0)), 1);
  EXPECT_EQ(engine.submit(make_job(0, 0.0, 60.0)), 2);
  // A client-chosen id is kept, and the auto-assign counter jumps past it.
  EXPECT_EQ(engine.submit(make_job(10, 0.0, 60.0)), 10);
  EXPECT_EQ(engine.submit(make_job(0, 0.0, 60.0)), 11);
}

TEST(ServiceEngine, RejectsDuplicateAndMalformedSubmissions) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.submit(make_job(5, 0.0, 60.0));
  EXPECT_THROW(engine.submit(make_job(5, 0.0, 60.0)), std::invalid_argument);
  rs::Job bad = make_job(0, 0.0, 60.0);
  bad.nodes = 0;  // malformed: Job::valid() fails
  EXPECT_THROW(engine.submit(bad), std::invalid_argument);
  rs::Job huge = make_job(0, 0.0, 60.0);
  huge.nodes = engine.effective_cluster().total_nodes + 1;  // can never fit
  EXPECT_THROW(engine.submit(huge), std::invalid_argument);
}

TEST(ServiceEngine, ClampsSubmitTimeUpToTheClock) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.submit(make_job(0, 0.0, 30.0));
  engine.advance_to(100.0);
  // A submission dated in the past is normalized to "now" - the engine's
  // job table appends in arrival order and cannot accept history rewrites.
  const rs::JobId id = engine.submit(make_job(0, 20.0, 30.0));
  engine.advance_to(100.5);
  EXPECT_EQ(engine.job_state(id), rs::JobState::kRunning);
  const auto& ops = engine.ops();
  ASSERT_GE(ops.size(), 2u);
  EXPECT_DOUBLE_EQ(ops[2].job.submit_time, 100.0);  // op log stores the clamp
}

TEST(ServiceEngine, AdvanceIsMonotone) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.advance_to(50.0);
  EXPECT_THROW(engine.advance_to(49.0), std::invalid_argument);
  engine.advance_to(50.0);  // equal is a no-op, not an error
  EXPECT_DOUBLE_EQ(engine.clock(), 50.0);
}

TEST(ServiceEngine, JobsWaitingAcrossAdvancesAreNotForceStarted) {
  // With a live session the engine must not fire its livelock-escape
  // emergency start just because the event queue drains: more work may
  // arrive. The waiting job stays queued until resources free up.
  rsvc::ServiceConfig config = fcfs_config();
  config.engine.cluster.total_nodes = 8;
  config.engine.cluster.total_memory_gb = 64.0;
  rsvc::ServiceEngine engine(config);
  const rs::JobId big = engine.submit(make_job(0, 0.0, 100.0, 8, 32.0));
  const rs::JobId blocked = engine.submit(make_job(0, 0.0, 10.0, 8, 32.0));
  engine.advance_to(50.0);
  EXPECT_EQ(engine.job_state(big), rs::JobState::kRunning);
  EXPECT_EQ(engine.job_state(blocked), rs::JobState::kWaiting);
  engine.advance_to(150.0);  // big completes at t=100, blocked starts then
  EXPECT_EQ(engine.job_state(big), rs::JobState::kCompleted);
  EXPECT_EQ(engine.job_state(blocked), rs::JobState::kCompleted);
}

TEST(ServiceEngine, CancelBufferedJobCascadesThroughDependents) {
  rsvc::ServiceEngine engine(fcfs_config());
  const rs::JobId a = engine.submit(make_job(0, 10.0, 60.0));
  rs::Job b = make_job(0, 20.0, 60.0);
  b.dependencies = {a};
  const rs::JobId bid = engine.submit(b);
  rs::Job c = make_job(0, 30.0, 60.0);
  c.dependencies = {bid};
  const rs::JobId cid = engine.submit(c);

  const std::vector<rs::JobId> cancelled = engine.cancel(a);
  EXPECT_EQ(cancelled, (std::vector<rs::JobId>{a, bid, cid}));
  EXPECT_EQ(engine.job_state(a), rs::JobState::kCancelled);
  EXPECT_EQ(engine.job_state(cid), rs::JobState::kCancelled);
  EXPECT_TRUE(engine.buffered().empty());
  // Cancelling again is a no-op, unknown ids throw.
  EXPECT_TRUE(engine.cancel(a).empty());
  EXPECT_THROW(engine.cancel(999), std::invalid_argument);
}

TEST(ServiceEngine, DependenciesMustBeBackwardAndAlive) {
  rsvc::ServiceEngine engine(fcfs_config());
  const rs::JobId a = engine.submit(make_job(0, 0.0, 60.0));
  engine.cancel(a);
  rs::Job on_cancelled = make_job(0, 1.0, 60.0);
  on_cancelled.dependencies = {a};
  EXPECT_THROW(engine.submit(on_cancelled), std::invalid_argument);
  rs::Job on_unknown = make_job(0, 1.0, 60.0);
  on_unknown.dependencies = {42};  // forward/unknown deps are replay-only
  EXPECT_THROW(engine.submit(on_unknown), std::invalid_argument);
}

TEST(ServiceEngine, StatusCountersTrackTheSession) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.submit(make_job(0, 0.0, 60.0));
  engine.submit(make_job(0, 500.0, 60.0));  // stays buffered until t=500
  rsvc::ServiceStatus status = engine.status();
  EXPECT_EQ(status.n_buffered, 2u);
  EXPECT_EQ(status.n_admitted, 0u);
  engine.advance_to(10.0);
  status = engine.status();
  EXPECT_EQ(status.n_buffered, 1u);
  EXPECT_EQ(status.n_admitted, 1u);
  EXPECT_EQ(status.n_running, 1u);
  EXPECT_FALSE(status.drained);
  engine.drain();
  status = engine.status();
  EXPECT_EQ(status.n_completed, 2u);
  EXPECT_TRUE(status.drained);
}

TEST(ServiceEngine, DrainedSessionRejectsFurtherMutation) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.submit(make_job(0, 0.0, 60.0));
  const rsvc::DrainResult result = engine.drain();
  EXPECT_EQ(result.schedule.completed.size(), 1u);
  EXPECT_GT(result.metrics.makespan, 0.0);
  EXPECT_TRUE(engine.drained());
  EXPECT_THROW(engine.submit(make_job(0, 0.0, 60.0)), std::logic_error);
  EXPECT_THROW(engine.advance_to(1e9), std::logic_error);
  EXPECT_THROW(engine.drain(), std::logic_error);
}

TEST(ServiceEngine, StreamModeFeedsJobsAsTheClockMoves) {
  rsvc::ServiceConfig config = fcfs_config(11);
  config.stream = rw::make_stream_spec("bursty_idle", 20, 2, 1.0);
  rsvc::ServiceEngine engine(config);
  EXPECT_EQ(engine.status().stream_emitted, 0u);
  engine.advance_to(1.0);
  EXPECT_GT(engine.status().stream_emitted, 0u);
  const rsvc::DrainResult result = engine.drain();
  EXPECT_EQ(engine.status().stream_emitted, 40u);
  EXPECT_EQ(result.schedule.completed.size() + engine.cancelled_log().size(), 40u);
}

TEST(ServiceEngine, EndlessStreamRefusesToDrain) {
  rsvc::ServiceConfig config = fcfs_config();
  config.stream = rw::make_stream_spec("bursty_idle", 10, /*max_batches=*/0, 1.0);
  rsvc::ServiceEngine engine(config);
  engine.advance_to(100.0);
  EXPECT_THROW(engine.drain(), std::logic_error);
}

TEST(ArrivalStream, StreamSpecEnforcesTheJobLimit) {
  // make_stream_spec is the one constructor behind the daemon's
  // --batch-jobs/--batches flags, snapshot restore and the sustained-load
  // bench, so these refusals hold on every path that builds a stream.
  constexpr std::size_t kMax = rw::kMaxStreamJobs;
  auto refusal = [](std::size_t batch_jobs, std::size_t max_batches) -> std::string {
    try {
      (void)rw::make_stream_spec("bursty_idle", batch_jobs, max_batches, 1.0);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(refusal(kMax, 1), "");
  EXPECT_EQ(refusal(kMax / 4, 4), "");
  EXPECT_EQ(refusal(kMax, 0), "");  // endless: only the batch size is capped
  EXPECT_EQ(refusal(0, 100000000), "");  // no generated jobs at all
  EXPECT_NE(refusal(kMax + 1, 1).find("batch_jobs"), std::string::npos);
  EXPECT_NE(refusal(kMax + 1, 0).find("batch_jobs"), std::string::npos);
  EXPECT_NE(refusal(100000000, 1).find("batch_jobs"), std::string::npos);
  EXPECT_NE(refusal(kMax / 4, 5).find("max_batches"), std::string::npos);
  EXPECT_NE(refusal(40, 100000000).find("max_batches"), std::string::npos);
  // 2 x 2^63 wraps std::size_t to 0; it must still be refused.
  const std::size_t half_range = std::numeric_limits<std::size_t>::max() / 2 + 1;
  EXPECT_NE(refusal(2, half_range).find("max_batches"), std::string::npos);
}

TEST(ArrivalStream, RateScaleCompressesArrivals) {
  // rate_scale r divides every inter-arrival gap by r: job k of the scaled
  // stream arrives at exactly 1/r of the baseline offset. Same jobs
  // otherwise - the workload content is rate-invariant.
  auto collect = [](double rate) {
    rw::ArrivalStream stream(rw::make_stream_spec("bursty_idle", 30, 1, rate), 3, {});
    std::vector<rs::Job> jobs;
    while (!stream.exhausted()) jobs.push_back(stream.pop());
    return jobs;
  };
  const std::vector<rs::Job> base = collect(1.0);
  const std::vector<rs::Job> fast = collect(2.0);
  ASSERT_EQ(base.size(), 30u);
  ASSERT_EQ(fast.size(), 30u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(fast[i].id, base[i].id);
    EXPECT_EQ(fast[i].duration, base[i].duration);
    EXPECT_DOUBLE_EQ(fast[i].submit_time, base[i].submit_time / 2.0);
  }
}

TEST(ServiceEngine, IdenticalOpSequencesYieldIdenticalDigests) {
  auto drive = [](rsvc::ServiceEngine& engine) {
    engine.submit(make_job(0, 0.0, 120.0));
    engine.submit(make_job(0, 5.0, 60.0));
    engine.advance_to(30.0);
    engine.submit(make_job(0, 40.0, 15.0));
    engine.advance_to(90.0);
  };
  rsvc::ServiceEngine a(fcfs_config(21));
  rsvc::ServiceEngine b(fcfs_config(21));
  drive(a);
  drive(b);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  // Divergence in any logged op moves the digest.
  b.submit(make_job(0, 95.0, 10.0));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(ServiceEngine, OpLogReplayReproducesTheSession) {
  rsvc::ServiceEngine original(fcfs_config(33));
  original.submit(make_job(0, 0.0, 120.0));
  original.submit(make_job(0, 10.0, 40.0));
  original.advance_to(25.0);
  const rs::JobId doomed = original.submit(make_job(0, 30.0, 500.0));
  original.advance_to(28.0);
  original.cancel(doomed);
  original.advance_to(200.0);

  rsvc::ServiceEngine rebuilt(fcfs_config(33));
  for (const rsvc::Request& op : original.ops()) rebuilt.apply(op);
  EXPECT_EQ(rebuilt.state_digest(), original.state_digest());

  // The rebuilt session continues exactly like the original.
  const rsvc::DrainResult a = original.drain();
  const rsvc::DrainResult b = rebuilt.drain();
  EXPECT_EQ(original.state_digest(), rebuilt.state_digest());
  ASSERT_EQ(a.schedule.completed.size(), b.schedule.completed.size());
  for (std::size_t i = 0; i < a.schedule.completed.size(); ++i) {
    EXPECT_EQ(a.schedule.completed[i].job.id, b.schedule.completed[i].job.id);
    EXPECT_EQ(a.schedule.completed[i].start_time, b.schedule.completed[i].start_time);
    EXPECT_EQ(a.schedule.completed[i].end_time, b.schedule.completed[i].end_time);
  }
}

TEST(ServiceEngine, WatermarkRejectsIdsBehindFlushedJobs) {
  rsvc::ServiceEngine engine(fcfs_config());
  engine.submit(make_job(100, 0.0, 60.0));
  engine.advance_to(0.0);  // id 100 admitted at t=0: watermark is (0, 100)
  // (submit=0, id=50) would sort behind the admitted (0, 100) in arrival
  // order, which the engine's append-only job table cannot express.
  EXPECT_THROW(engine.submit(make_job(50, 0.0, 30.0)), std::invalid_argument);
  // Once the clock moves, the same id is fine: clamping pushes its arrival
  // key past the watermark.
  engine.advance_to(10.0);
  EXPECT_EQ(engine.submit(make_job(50, 0.0, 30.0)), 50);
  EXPECT_EQ(engine.job_state(50), rs::JobState::kPending);  // buffered
  engine.advance_to(10.0);                                  // flush admits it
  EXPECT_EQ(engine.job_state(50), rs::JobState::kRunning);
}
