#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/methods.hpp"
#include "metrics/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "sim/engine.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rm = reasched::metrics;
namespace rsvc = reasched::service;
namespace rs = reasched::sim;
namespace rw = reasched::workload;

// Online-vs-batch equivalence goldens, one per method family. The same
// workload is run (a) through sim::Engine::run - the batch path - and
// (b) through a live ServiceEngine session that submits every job over the
// RJMS boundary and then drains. The two must agree bit-for-bit: identical
// decision traces, identical completions, identical metrics. This is the
// guarantee that lets the paper's batch results stand in for service-mode
// behavior (and vice versa).

namespace {

constexpr std::uint64_t kSeed = 20250808;

std::vector<rs::Job> workload(std::size_t n = 40) {
  return rw::generate_scenario(rw::ScenarioSpec::parse("bursty_idle"), n, kSeed, {});
}

void expect_identical(const rs::ScheduleResult& batch, const rs::ScheduleResult& online,
                      const rs::ClusterSpec& cluster) {
  // The JSON-lines decision trace is the artifact CI diffs; string equality
  // here is the same bit-for-bit statement.
  EXPECT_EQ(rsvc::render_decision_trace(batch), rsvc::render_decision_trace(online));

  ASSERT_EQ(batch.completed.size(), online.completed.size());
  for (std::size_t i = 0; i < batch.completed.size(); ++i) {
    EXPECT_EQ(batch.completed[i].job.id, online.completed[i].job.id);
    EXPECT_EQ(batch.completed[i].start_time, online.completed[i].start_time);
    EXPECT_EQ(batch.completed[i].end_time, online.completed[i].end_time);
  }
  EXPECT_EQ(batch.final_time, online.final_time);
  EXPECT_EQ(batch.n_decisions, online.n_decisions);
  EXPECT_EQ(batch.n_invalid_actions, online.n_invalid_actions);
  EXPECT_EQ(batch.n_forced_delays, online.n_forced_delays);
  EXPECT_EQ(batch.n_backfills, online.n_backfills);

  const rm::MetricSet a = rm::compute_metrics(batch, cluster);
  const rm::MetricSet b = rm::compute_metrics(online, cluster);
  for (const rm::Metric m : rm::all_metrics()) {
    EXPECT_EQ(a.get(m), b.get(m)) << rm::to_string(m);
  }
  EXPECT_EQ(a.energy_kwh, b.energy_kwh);
}

// Batch run vs a service session that submits each job individually (ids
// pre-assigned by the generator, so both sides see the same id space) and
// drains once the full workload is in.
void check_method(const std::string& method) {
  const std::vector<rs::Job> jobs = workload();
  const rh::MethodSpec spec = rh::MethodSpec::parse(method);

  rs::EngineConfig engine_config;
  std::unique_ptr<rs::Scheduler> batch_scheduler = rh::make_scheduler(spec, kSeed);
  rs::Engine batch(engine_config);
  const rs::ScheduleResult batch_result = batch.run(jobs, *batch_scheduler);

  rsvc::ServiceConfig config;
  config.method = spec;
  config.engine = engine_config;
  config.seed = kSeed;
  rsvc::ServiceEngine session(config);
  for (const rs::Job& job : jobs) session.submit(job);
  const rsvc::DrainResult online = session.drain();

  expect_identical(batch_result, online.schedule, session.effective_cluster());
}

}  // namespace

TEST(ServiceEquivalenceGolden, HeuristicFcfs) { check_method("fcfs"); }

TEST(ServiceEquivalenceGolden, HeuristicSjf) { check_method("sjf"); }

TEST(ServiceEquivalenceGolden, HeuristicEasyBackfill) { check_method("easy"); }

TEST(ServiceEquivalenceGolden, OptimizationPortfolio) { check_method("opt:portfolio"); }

TEST(ServiceEquivalenceGolden, AgentFastLocal) { check_method("agent:fastlocal"); }

TEST(ServiceEquivalenceGolden, IncrementalAdvanceMatchesOneShotDrain) {
  // Walking the clock forward in many small advances must not change a
  // single scheduling decision relative to draining in one go: the
  // event-time batches the scheduler sees are identical either way.
  const std::vector<rs::Job> jobs = workload(32);

  rsvc::ServiceConfig config;
  config.method = rh::MethodSpec::parse("fcfs");
  config.seed = kSeed;

  rsvc::ServiceEngine one_shot(config);
  for (const rs::Job& job : jobs) one_shot.submit(job);
  const rsvc::DrainResult a = one_shot.drain();

  rsvc::ServiceEngine stepped(config);
  for (const rs::Job& job : jobs) stepped.submit(job);
  for (double t = 0.0; t < a.schedule.final_time; t += a.schedule.final_time / 97.0) {
    stepped.advance_to(t);
  }
  const rsvc::DrainResult b = stepped.drain();

  // One deliberate exception to bit-identity: the terminal Stop record. A
  // one-shot drain learns "no more work" inside the last start's event
  // batch; a stepped session only learns it when the client finally calls
  // drain, by which point the remaining events are completions - so its
  // Stop is stamped at the last completion instead. Everything the Stop
  // follows (every placement, every completion, every metric) must still
  // agree exactly.
  ASSERT_FALSE(a.schedule.decisions.empty());
  ASSERT_FALSE(b.schedule.decisions.empty());
  rs::ScheduleResult a_body = a.schedule;
  rs::ScheduleResult b_body = b.schedule;
  EXPECT_EQ(a_body.decisions.back().action, rs::Action::stop());
  EXPECT_EQ(b_body.decisions.back().action, rs::Action::stop());
  a_body.decisions.pop_back();
  b_body.decisions.pop_back();
  a_body.n_decisions -= 1;
  b_body.n_decisions -= 1;
  expect_identical(a_body, b_body, one_shot.effective_cluster());
}
