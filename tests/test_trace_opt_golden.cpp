// Trace-scale differential coverage (label: trace): the optimizer on the
// engine's indexed views vs on owned copies of every context, over an SWF
// round-trip Polaris trace substitute - whole-second submit stamps mass up
// same-second ties and deep queues, the regime the planning window exists
// for - plus a bounded-window agent replay demonstrating flat prompt growth.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/factory.hpp"
#include "decision_context_test_helper.hpp"
#include "core/react_agent.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/polaris.hpp"
#include "workload/swf.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;
namespace rw = reasched::workload;
namespace rc = reasched::core;

namespace {

std::vector<rs::Job> swf_round_trip_trace(std::size_t n_jobs, std::uint64_t seed) {
  rw::PolarisTraceConfig config;
  config.n_jobs = n_jobs + n_jobs / 2 + 20;  // post-filter count reaches n_jobs
  config.mean_interarrival_s = 90.0;
  const auto raw = rw::generate_polaris_raw_trace(config, seed);
  const auto jobs = rw::preprocess_polaris_trace(raw, n_jobs);
  rw::SwfOptions options;
  options.default_memory_gb_per_node = 512.0;
  return rw::parse_swf(rw::jobs_to_swf(jobs), options);
}

}  // namespace

TEST(TraceOptGolden, OptimizerViewPathMatchesOracleOnAnSwfRoundTrip) {
  const auto jobs = swf_round_trip_trace(300, 4242);
  rs::EngineConfig engine_config;
  engine_config.cluster = rs::ClusterSpec::polaris();
  rs::Engine engine(engine_config);

  // Bench-sized portfolio budgets: the differential cares about identical
  // decisions, not plan quality, and both paths share the configuration.
  ro::OptimizingSchedulerConfig config;
  config.seed = 99;
  config.sa.iterations = 300;
  config.local_search_evals = 300;
  ro::OptimizingScheduler view_path(config);
  ro::OptimizingScheduler copied(config);
  reasched::testing::CopiedContextScheduler oracle_path(copied);

  const auto got = engine.run(jobs, view_path);
  const auto want = engine.run(jobs, oracle_path);

  EXPECT_EQ(got.n_decisions, want.n_decisions);
  EXPECT_EQ(got.n_backfills, want.n_backfills);
  EXPECT_DOUBLE_EQ(got.final_time, want.final_time);
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    EXPECT_EQ(got.decisions[i].action, want.decisions[i].action) << "decision " << i;
  }
  ASSERT_EQ(got.completed.size(), want.completed.size());
  for (std::size_t i = 0; i < got.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.completed[i].start_time, want.completed[i].start_time)
        << "job " << got.completed[i].job.id;
  }
}

TEST(TraceOptGolden, BoundedWindowKeepsAgentPromptsFlatOnDeepQueues) {
  const auto jobs = swf_round_trip_trace(300, 777);
  rs::EngineConfig engine_config;
  engine_config.cluster = rs::ClusterSpec::polaris();
  engine_config.record_traces = false;
  rs::Engine engine(engine_config);

  rc::AgentConfig unbounded_cfg;
  const auto unbounded = rc::make_fast_local_agent(3, unbounded_cfg);
  rc::AgentConfig windowed_cfg;
  windowed_cfg.window.top_k = 16;
  const auto windowed = rc::make_fast_local_agent(3, windowed_cfg);

  const auto a = engine.run(jobs, *unbounded);
  const auto b = engine.run(jobs, *windowed);
  EXPECT_EQ(a.completed.size(), jobs.size());
  EXPECT_EQ(b.completed.size(), jobs.size());

  // Window bounds the prompt: the windowed run must spend strictly fewer
  // prompt tokens in total (the trace's saturated stretches hold far more
  // than 16 waiting jobs).
  EXPECT_LT(windowed->transcript().total_prompt_tokens(),
            unbounded->transcript().total_prompt_tokens());
}
