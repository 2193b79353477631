// Cross-module integration tests: full pipelines over generated workloads
// and the Polaris substrate, asserting the qualitative relationships the
// paper's evaluation depends on.

#include <gtest/gtest.h>

#include "harness/sweep.hpp"
#include "metrics/report.hpp"
#include "workload/polaris.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rm = reasched::metrics;
namespace rs = reasched::sim;

TEST(Integration, AllScenariosAllPaperMethodsProduceSaneMetrics) {
  for (const auto& scenario : rw::paper_scenario_specs()) {
    const auto jobs = rw::generate_scenario(scenario, 16, 11);
    for (const auto& method : rh::paper_methods()) {
      const auto outcome = rh::run_method(jobs, method, 11);
      const auto& m = outcome.metrics;
      EXPECT_GT(m.makespan, 0.0);
      EXPECT_GE(m.avg_wait, 0.0);
      EXPECT_GE(m.avg_turnaround, m.avg_wait);
      EXPECT_GT(m.throughput, 0.0);
      EXPECT_GT(m.node_util, 0.0);
      EXPECT_LE(m.node_util, 1.0 + 1e-9);
      EXPECT_LE(m.mem_util, 1.0 + 1e-9);
      EXPECT_GE(m.wait_fairness, 0.0);
      EXPECT_LE(m.wait_fairness, 1.0 + 1e-9);
      EXPECT_GE(m.user_fairness, 0.0);
      EXPECT_LE(m.user_fairness, 1.0 + 1e-9);
    }
  }
}

TEST(Integration, LlmAgentsReduceWaitInLongJobDominant) {
  // The paper's headline Long-Job-Dominant claim: FCFS suffers the convoy
  // effect; the LLM agents dramatically reduce average wait and turnaround.
  const auto jobs = rw::generate_scenario("long_job", 40, 21);
  const auto fcfs = rh::run_method(jobs, "fcfs", 21);
  const auto claude = rh::run_method(jobs, "agent:claude37", 21);
  const auto o4 = rh::run_method(jobs, "agent:o4mini", 21);
  EXPECT_LT(claude.metrics.avg_wait, 0.6 * fcfs.metrics.avg_wait);
  EXPECT_LT(o4.metrics.avg_wait, 0.6 * fcfs.metrics.avg_wait);
  EXPECT_LT(claude.metrics.avg_turnaround, fcfs.metrics.avg_turnaround);
}

TEST(Integration, OrToolsWinsUtilizationLosesFairnessInHetMix) {
  // The paper's OR-Tools signature (Sections 3.5-3.6).
  const auto jobs = rw::generate_scenario("hetero_mix", 60, 42);
  const auto fcfs = rh::run_method(jobs, "fcfs", 42);
  const auto ortools = rh::run_method(jobs, "opt:portfolio", 42);
  const auto claude = rh::run_method(jobs, "agent:claude37", 42);
  EXPECT_GT(ortools.metrics.node_util, fcfs.metrics.node_util);
  EXPECT_LT(ortools.metrics.makespan, fcfs.metrics.makespan);
  EXPECT_LT(ortools.metrics.wait_fairness, fcfs.metrics.wait_fairness);
  // The LLM agent keeps fairness far above the pure optimizer.
  EXPECT_GT(claude.metrics.wait_fairness, ortools.metrics.wait_fairness);
}

TEST(Integration, AdversarialScenarioFlattensDifferences) {
  // Section 3.5: "Adversarial conditions lead to flattened differences".
  const auto jobs = rw::generate_scenario("adversarial", 40, 5);
  const auto fcfs = rh::run_method(jobs, "fcfs", 5);
  for (const auto method : {"sjf", "agent:claude37"}) {
    const auto other = rh::run_method(jobs, method, 5);
    EXPECT_NEAR(other.metrics.makespan / fcfs.metrics.makespan, 1.0, 0.05);
    EXPECT_NEAR(other.metrics.throughput / fcfs.metrics.throughput, 1.0, 0.05);
  }
}

TEST(Integration, PolarisTraceEndToEnd) {
  // Section 5 pipeline: synthetic raw trace -> preprocessing -> simulation
  // on the 560-node Polaris partition, idle at t=0.
  const auto jobs = rw::polaris_jobs(50, 11);
  rs::EngineConfig engine;
  engine.cluster = rs::ClusterSpec::polaris();
  std::vector<rm::MethodResult> rows;
  for (const auto& method : rh::paper_methods()) {
    const auto outcome = rh::run_method(jobs, method, 11, engine);
    EXPECT_EQ(outcome.schedule.completed.size(), 50u) << rh::method_label(method);
    rows.push_back({rh::method_label(method), outcome.metrics});
  }
  // The normalized table renders without error and contains every method.
  const std::string table = rm::render_normalized_table(rows, "FCFS");
  for (const auto& row : rows) {
    EXPECT_NE(table.find(row.method), std::string::npos);
  }
}

TEST(Integration, FastLocalProfileSlashesOverhead) {
  // Extension (Section 3.7.3): an on-prem fast reasoner makes LLM scheduling
  // latency-viable; decisions stay Claude-like but total elapsed collapses.
  const auto jobs = rw::generate_scenario("hetero_mix", 30, 31);
  const auto claude = rh::run_method(jobs, "agent:claude37", 31);
  const auto fast = rh::run_method(jobs, "agent:fastlocal", 31);
  ASSERT_TRUE(claude.overhead.has_value());
  ASSERT_TRUE(fast.overhead.has_value());
  EXPECT_LT(fast.overhead->total_elapsed_s * 5.0, claude.overhead->total_elapsed_s);
}

TEST(Integration, CallCountsTrackJobCounts) {
  // Figure 5 (middle): LLM call counts approximately equal job count, with
  // slight variation due to backfills/delays.
  for (const std::size_t n : {10u, 20u, 40u}) {
    const auto jobs = rw::generate_scenario("homog_short", n, 7);
    const auto outcome = rh::run_method(jobs, "agent:claude37", 7);
    ASSERT_TRUE(outcome.overhead.has_value());
    EXPECT_EQ(outcome.overhead->n_successful, n);
    EXPECT_GE(outcome.overhead->n_calls, n);          // + delays/stop
    EXPECT_LE(outcome.overhead->n_calls, 3 * n + 10);  // bounded overhead
  }
}

TEST(Integration, EasyBackfillBeatsFcfsOnConvoy) {
  const auto jobs = rw::generate_scenario("long_job", 30, 17);
  const auto fcfs = rh::run_method(jobs, "fcfs", 17);
  const auto easy = rh::run_method(jobs, "easy", 17);
  EXPECT_LE(easy.metrics.avg_wait, fcfs.metrics.avg_wait);
  EXPECT_LE(easy.metrics.makespan, fcfs.metrics.makespan * 1.001);
}

TEST(Integration, StaticArrivalFormulationRuns) {
  // Section 3.3's static formulation: all jobs at t=0.
  rw::GenerateOptions options;
  options.arrival_mode = rw::ArrivalMode::kStatic;
  const auto jobs = rw::generate_scenario("hetero_mix", 20, 13, options);
  for (const auto& method : rh::paper_methods()) {
    const auto outcome = rh::run_method(jobs, method, 13);
    EXPECT_EQ(outcome.schedule.completed.size(), 20u);
    // With s_j = 0, wait equals start time (w_j = x_j).
    for (const auto& c : outcome.schedule.completed) {
      EXPECT_DOUBLE_EQ(c.wait_time(), c.start_time);
    }
  }
}
