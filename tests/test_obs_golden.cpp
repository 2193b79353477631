// Telemetry observe-only golden: the hard invariant of the obs layer is
// that enabling it cannot change a single scheduling decision. For one
// method per family (queue policy, optimiser, LLM agent) the same workload
// runs with telemetry off and on, and the rendered decision trace plus
// every objective metric must be *bit-identical* - not approximately equal.
// Any telemetry write that leaks back into engine state (clock, RNG, queue
// order, float accumulation order) shows up here as the first divergent
// trace line.
//
// The REASCHED_OBS_OFF compile-time configuration is a strict subset of
// the runtime-disabled path exercised here (enabled() is hardwired to
// false instead of reading the atomic), so this test also pins the
// compiled-out build: code that is bit-identical under runtime-off stays
// bit-identical when the same branches are removed at compile time.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "metrics/metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rm = reasched::metrics;
namespace ro = reasched::obs;
namespace rs = reasched::service;
namespace rw = reasched::workload;

namespace {

/// Restores telemetry to disabled (and clears the recorder/registry) even
/// when an assertion aborts the test body early.
struct ObsDisableGuard {
  ~ObsDisableGuard() {
    ro::set_enabled(false);
    ro::TraceRecorder::global().clear();
    ro::MetricRegistry::global().reset();
  }
};

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void check_method(const std::string& method) {
  SCOPED_TRACE(method);
  const auto jobs = rw::generate_scenario("hetero_mix", 48, /*seed=*/2025);

  ObsDisableGuard guard;
  ro::set_enabled(false);
  const rh::RunOutcome off = rh::run_method(jobs, method, /*seed=*/7);

  ro::set_enabled(true);
  const rh::RunOutcome on = rh::run_method(jobs, method, /*seed=*/7);
  ro::set_enabled(false);

  // The decision trace is the full per-decision record (time, action, job,
  // nodes); string equality over its exact-double rendering is the
  // strongest schedule-equality check the repo has.
  EXPECT_EQ(rs::render_decision_trace(off.schedule), rs::render_decision_trace(on.schedule));
  EXPECT_EQ(off.schedule.n_decisions, on.schedule.n_decisions);
  EXPECT_EQ(off.schedule.n_backfills, on.schedule.n_backfills);
  EXPECT_TRUE(bit_identical(off.schedule.final_time, on.schedule.final_time));

  for (const auto metric : rm::all_metrics()) {
    SCOPED_TRACE(rm::to_string(metric));
    EXPECT_TRUE(bit_identical(off.metrics.get(metric), on.metrics.get(metric)))
        << off.metrics.get(metric) << " vs " << on.metrics.get(metric);
  }
}

}  // namespace

TEST(ObsGolden, QueuePolicyUnchangedByTelemetry) { check_method("fcfs"); }

TEST(ObsGolden, OptimizerUnchangedByTelemetry) {
  check_method("opt:portfolio?budget=300&ls_evals=300&window=sjf:16");
}

TEST(ObsGolden, AgentUnchangedByTelemetry) { check_method("agent:fastlocal"); }

// The instrumented run above must actually have instrumented something -
// otherwise the bit-identical checks pass vacuously on a dead obs path.
TEST(ObsGolden, TelemetryActuallyRecordsWhenEnabled) {
  const auto jobs = rw::generate_scenario("hetero_mix", 48, /*seed=*/2025);

  ObsDisableGuard guard;
  ro::MetricRegistry::global().reset();
  ro::set_enabled(true);
  (void)rh::run_method(jobs, "fcfs", /*seed=*/7);
  ro::set_enabled(false);

  const auto snap = ro::MetricRegistry::global().snapshot();
  std::uint64_t engine_steps = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "engine/steps") engine_steps = value;
  }
  // flush_obs() at finish() publishes exact totals even though the hot
  // path only flushes at sampled steps.
  EXPECT_GT(engine_steps, 0u);
}
