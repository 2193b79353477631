#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rs = reasched::sim;

// Acceptance: a 6-cell sweep whose scenario axis is pure spec strings -
// parameterized bases, a mix(...) and a piped transform included - runs
// through run_sweep_streaming and exports one spec-keyed run-log row per
// cell, with no enum involvement anywhere.
TEST(ScenarioSpecSweep, SpecStringAxisThroughStreamingSweepAndExport) {
  rh::SweepConfig config;
  config.scenarios = {"homog_short",
                      "resource_sparse?rate_scale=2",
                      "mix(long_job:0.2,resource_sparse:0.8)",
                      "bursty_idle|perturb?walltime_noise=1.2:2.0|dag?fanout=3&depth=2",
                      "hetero_mix?walltime_noise=1.0:3.0",
                      "adversarial|stretch?load=1.5"};
  config.job_counts = {12};
  config.methods = {"fcfs", "easy"};
  config.repetitions = 1;
  config.base_seed = 555;
  config.threads = 2;

  std::map<rh::Cell, std::vector<std::string>> exports;
  const auto streamed = rh::run_sweep_streaming(
      config, [&exports](const rh::Cell& cell, const rh::RunOutcome& outcome) {
        exports.emplace(cell, rh::cell_runlog_row(cell, outcome));
      });

  ASSERT_EQ(streamed.cells.size(), 12u);  // 6 scenarios x 2 methods
  ASSERT_EQ(streamed.groups.size(), 12u);
  ASSERT_EQ(exports.size(), 12u);

  for (const auto& scenario : config.scenarios) {
    for (const auto& method : config.methods) {
      const rh::Cell cell{scenario, 12, method, 0};
      ASSERT_TRUE(streamed.cells.count(cell) != 0) << scenario.to_string();
      const auto it = exports.find(cell);
      ASSERT_NE(it, exports.end()) << scenario.to_string();
      // The row leads with the canonical scenario and method specs, so
      // every perturbed/mixed/piped cell stays losslessly reconstructible.
      const std::vector<std::string>& row = it->second;
      ASSERT_EQ(row.size(), rh::cell_runlog_columns().size());
      EXPECT_EQ(row[0], scenario.to_string());
      EXPECT_EQ(row[2], method.to_string());
    }
  }

  // Distinct spec strings are distinct axis values with distinct seeds.
  const rh::Cell plain{config.scenarios[0], 12, config.methods[0], 0};
  const rh::Cell scaled{config.scenarios[1], 12, config.methods[0], 0};
  EXPECT_NE(rh::cell_seed(config, plain), rh::cell_seed(config, scaled));
}

TEST(ScenarioSpecSweep, DuplicateScenarioSpecsRunOnce) {
  rh::SweepConfig config;
  // The same spec written three ways is one scenario - one axis value,
  // not two identical cells fighting over one result key.
  config.scenarios = {"homog_short", "homog_short",
                      rw::ScenarioSpec("homog_short"), "resource_sparse"};
  config.job_counts = {8};
  config.methods = {"fcfs"};
  config.threads = 1;
  // homog_short + resource_sparse
  EXPECT_EQ(rh::run_sweep_streaming(config).cells.size(), 2u);
}

TEST(ScenarioSpecSweep, ClusterOverrideReachesEngineAndGeneration) {
  rh::SweepConfig config;
  const rw::ScenarioSpec narrow("high_parallel|cluster?nodes=64&memory_gb=512");
  config.scenarios = {narrow};
  config.job_counts = {10};
  config.methods = {"fcfs"};
  config.base_seed = 9;
  config.threads = 1;

  // cell_engine applies the override; generation clamps to the same caps.
  const auto engine = rh::cell_engine(config, narrow);
  EXPECT_EQ(engine.cluster.total_nodes, 64);
  EXPECT_EQ(engine.cluster.total_memory_gb, 512.0);
  for (const auto& job : rh::cell_jobs(config, narrow, 10, 0)) {
    EXPECT_LE(job.nodes, 64);
    EXPECT_LE(job.memory_gb, 512.0);
  }

  // The sweep runs the cell on the overridden cluster - with the default
  // 256-node engine the 64-node ledger would reject nothing, so utilization
  // above 25% on a saturated high_parallel workload proves the engine saw
  // the narrow cluster. (Mostly: the run completing at all proves the
  // engine/generation agreement, since oversized jobs would throw.)
  std::size_t completed = 0;
  const auto sweep = rh::run_sweep_streaming(
      config, [&](const rh::Cell&, const rh::RunOutcome& outcome) {
        completed = outcome.schedule.completed.size();
      });
  ASSERT_EQ(sweep.cells.size(), 1u);
  EXPECT_EQ(completed, 10u);
}
