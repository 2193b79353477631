#include <gtest/gtest.h>

#include "golden_digest_test_helper.hpp"
#include "harness/sweep.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rm = reasched::metrics;

TEST(Methods, NamesAndFactory) {
  for (const char* m : {"fcfs", "sjf", "opt:portfolio", "agent:claude37", "agent:o4mini", "easy",
                        "agent:fastlocal"}) {
    const auto scheduler = rh::make_scheduler(m, 1);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), rh::method_label(m));
    // The canonical spec string parses back to the same method and builds
    // the same scheduler type.
    const rh::MethodSpec spec(m);
    const auto via_spec = rh::make_scheduler(rh::MethodSpec::parse(spec.to_string()), 1);
    EXPECT_EQ(via_spec->name(), scheduler->name());
  }
}

TEST(Methods, PaperSetIsFiveInOrder) {
  const auto& methods = rh::paper_methods();
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(methods.front(), rh::MethodSpec("fcfs"));
  EXPECT_EQ(methods.front().name, "fcfs");
  EXPECT_EQ(rh::method_label(methods[2]), "OR-Tools*");
}

TEST(RunMethod, OverheadOnlyForLlmMethods) {
  const auto jobs = rw::generate_scenario("resource_sparse", 12, 3);
  const auto fcfs = rh::run_method(jobs, "fcfs", 3);
  EXPECT_FALSE(fcfs.overhead.has_value());
  EXPECT_EQ(fcfs.schedule.completed.size(), 12u);

  const auto claude = rh::run_method(jobs, "agent:claude37", 3);
  ASSERT_TRUE(claude.overhead.has_value());
  EXPECT_EQ(claude.overhead->n_successful, 12u);
  EXPECT_GT(claude.overhead->total_elapsed_s, 0.0);
  EXPECT_EQ(claude.overhead->latencies.size(), 12u);
  EXPECT_GT(claude.overhead->prompt_tokens, 0);
}

TEST(Sweep, DeterministicAndPaired) {
  rh::SweepConfig config;
  config.scenarios = {"resource_sparse"};
  config.job_counts = {10};
  config.methods = {"fcfs", "sjf"};
  config.repetitions = 2;
  config.base_seed = 99;
  config.threads = 2;

  const auto r1 = reasched::testing::sweep_outcome_digests(config);
  const auto r2 = reasched::testing::sweep_outcome_digests(config);
  ASSERT_EQ(r1.size(), 4u);  // 2 methods x 2 reps
  ASSERT_EQ(r2.size(), r1.size());
  for (const auto& [cell, digest] : r1) {
    EXPECT_EQ(digest, r2.at(cell)) << "sweep not deterministic";
  }

  // Paired workloads: both methods see identical jobs per repetition.
  const auto jobs_a = rh::cell_jobs(config, "resource_sparse", 10, 0);
  const auto jobs_b = rh::cell_jobs(config, "resource_sparse", 10, 0);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  for (std::size_t i = 0; i < jobs_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(jobs_a[i].duration, jobs_b[i].duration);
  }
  // Different repetitions draw different workloads.
  const auto jobs_rep1 = rh::cell_jobs(config, "resource_sparse", 10, 1);
  bool differs = false;
  for (std::size_t i = 0; i < jobs_a.size() && !differs; ++i) {
    differs = jobs_a[i].duration != jobs_rep1[i].duration;
  }
  EXPECT_TRUE(differs);
}

TEST(Sweep, DuplicateMethodSpecsRunOnce) {
  rh::SweepConfig config;
  config.scenarios = {"homog_short"};
  config.job_counts = {8};
  // The same spec written three ways is one method - one cell, not
  // two identical cells fighting over one result key.
  config.methods = {"fcfs", "fcfs", rh::MethodSpec("fcfs"), "sjf"};
  config.threads = 1;
  EXPECT_EQ(rh::run_sweep_streaming(config).cells.size(), 2u);  // fcfs + sjf
}

TEST(Sweep, CellSeedVariesByMethodAndRep) {
  rh::SweepConfig config;
  const rh::Cell a{"hetero_mix", 10, "agent:claude37", 0};
  const rh::Cell b{"hetero_mix", 10, "agent:o4mini", 0};
  const rh::Cell c{"hetero_mix", 10, "agent:claude37", 1};
  EXPECT_NE(rh::cell_seed(config, a), rh::cell_seed(config, b));
  EXPECT_NE(rh::cell_seed(config, a), rh::cell_seed(config, c));
}

TEST(Sweep, AggregateGroupsRepetitions) {
  rh::SweepConfig config;
  config.scenarios = {"homog_short"};
  config.job_counts = {10};
  config.methods = {"fcfs"};
  config.repetitions = 3;
  config.threads = 1;
  const auto groups = rh::run_sweep_streaming(config).groups;
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->second.n_samples(), 3u);
}

TEST(Sweep, StaticModeProducesZeroArrivals) {
  rh::SweepConfig config;
  config.arrival_mode = rw::ArrivalMode::kStatic;
  const auto jobs = rh::cell_jobs(config, "hetero_mix", 8, 0);
  for (const auto& j : jobs) EXPECT_DOUBLE_EQ(j.submit_time, 0.0);
}

TEST(Sweep, StreamingIsIndependentOfThreadCount) {
  rh::SweepConfig config;
  config.scenarios = {"resource_sparse", "homog_short"};
  config.job_counts = {12};
  config.methods = {"fcfs", "sjf"};
  config.repetitions = 2;
  config.base_seed = 7;
  config.threads = 1;

  std::size_t sink_calls = 0;
  const auto serial = rh::run_sweep_streaming(
      config, [&](const rh::Cell&, const rh::RunOutcome& outcome) {
        ++sink_calls;
        EXPECT_FALSE(outcome.schedule.completed.empty());
      });
  ASSERT_EQ(serial.cells.size(), 8u);  // 2 scenarios x 2 methods x 2 reps
  EXPECT_EQ(sink_calls, serial.cells.size());
  EXPECT_EQ(serial.groups.size(), 4u);

  // Cells and groups are bit-identical on four workers: groups reduce in
  // deterministic key order, not completion order.
  config.threads = 4;
  const auto parallel = rh::run_sweep_streaming(config);
  EXPECT_EQ(reasched::testing::sweep_digest(parallel), reasched::testing::sweep_digest(serial));
}
