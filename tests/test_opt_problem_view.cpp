// Unit coverage for the zero-copy ProblemView and the PlanningWindow cap:
// view/copy equivalence over engine-built contexts, window selection
// semantics, and the K=0 == K>=queue identity the golden tests rely on.

#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>

#include "core/factory.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/model.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/planning_window.hpp"
#include "workload/scenario_spec.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;
namespace rw = reasched::workload;

// A Problem converts to a view implicitly, so every solver takes one as it
// is; a temporary Problem does not, since the view would outlive it.
static_assert(std::is_convertible_v<const ro::Problem&, ro::ProblemView>);
static_assert(!std::is_constructible_v<ro::ProblemView, ro::Problem&&>);

namespace {

rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  j.user = 1 + id % 3;
  return j;
}

/// Captures one mid-run decision point and compares the zero-copy view
/// against the copying snapshot, then delegates to FCFS semantics.
class ViewProbe final : public rs::Scheduler {
 public:
  rs::Action decide(const rs::DecisionContext& ctx) override {
    if (!ctx.waiting.empty()) {
      const ro::Problem copy = ro::Problem::from_context(ctx);
      const ro::ProblemView view = ro::ProblemView::from_context(ctx);

      EXPECT_EQ(view.n_jobs(), copy.jobs.size());
      for (std::size_t i = 0; i < view.n_jobs(); ++i) {
        EXPECT_EQ(view.job(i).id, copy.jobs[i].id);
        EXPECT_EQ(view.job(i).submit_time, copy.jobs[i].submit_time);
      }
      EXPECT_EQ(view.n_pinned(), copy.pinned.size());
      for (std::size_t i = 0; i < view.n_pinned(); ++i) {
        EXPECT_EQ(view.pinned(i).end_time, copy.pinned[i].end_time);
        EXPECT_EQ(view.pinned(i).nodes, copy.pinned[i].nodes);
        EXPECT_EQ(view.pinned(i).memory_gb, copy.pinned[i].memory_gb);
      }
      EXPECT_EQ(view.now(), copy.now);
      EXPECT_EQ(view.total_nodes(), copy.total_nodes);
      ++probed;

      // Start the queue head when it fits (FCFS) so the run progresses.
      if (ctx.cluster.fits(ctx.waiting.front())) {
        return rs::Action::start(ctx.waiting.front().id);
      }
    }
    if (ctx.waiting.empty() && ctx.ineligible.empty() && !ctx.arrivals_pending) {
      return rs::Action::stop();
    }
    return rs::Action::delay();
  }
  std::string name() const override { return "ViewProbe"; }

  std::size_t probed = 0;
};

}  // namespace

TEST(ProblemView, MatchesCopyingProblemAcrossAnEngineRun) {
  const auto jobs = rw::generate_scenario("hetero_mix", 80, 7);
  ViewProbe probe;
  rs::Engine engine;
  engine.run(jobs, probe);
  EXPECT_GT(probe.probed, 0u);
}

TEST(ProblemView, AdapterDecodesIdenticallyToTheOwningProblem) {
  ro::Problem p;
  p.now = 10.0;
  p.total_nodes = 64;
  p.total_memory_gb = 512.0;
  p.jobs = {make_job(1, 32, 128, 100, 0.0), make_job(2, 48, 256, 50, 5.0),
            make_job(3, 8, 32, 200, 12.0)};
  p.pinned = {{40.0, 16, 64.0}};

  const ro::ProblemView view(p);
  std::vector<std::size_t> order(p.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto via_problem = ro::decode_order(p, order);
  const auto via_view = ro::decode_order(view, order);
  EXPECT_EQ(via_problem.start_times, via_view.start_times);
  EXPECT_EQ(via_problem.makespan, via_view.makespan);
  EXPECT_EQ(via_problem.total_wait, via_view.total_wait);
}

TEST(ProblemView, DecodeSubsetMatchesDecodeOverTheSubProblem) {
  ro::Problem p;
  p.total_nodes = 64;
  p.total_memory_gb = 512.0;
  p.jobs = {make_job(1, 32, 128, 100), make_job(2, 48, 256, 50), make_job(3, 8, 32, 200),
            make_job(4, 60, 400, 75)};
  p.pinned = {{25.0, 20, 100.0}};

  const std::vector<std::size_t> prefix = {2, 0};
  const auto via_subset = ro::decode_subset(ro::ProblemView(p), prefix);

  ro::Problem sub = p;
  sub.jobs = {p.jobs[2], p.jobs[0]};
  const auto via_sub_problem = ro::decode_order(sub, {0, 1});
  EXPECT_EQ(via_subset.start_times, via_sub_problem.start_times);
  EXPECT_EQ(via_subset.makespan, via_sub_problem.makespan);
}

TEST(PlanningWindow, UnboundedForZeroKAndSmallQueues) {
  std::vector<rs::Job> waiting = {make_job(1, 1, 1, 10), make_job(2, 1, 1, 20)};
  std::vector<std::uint32_t> out = {99};

  rs::PlanningWindow unbounded;  // top_k = 0
  EXPECT_FALSE(unbounded.bounds(waiting.size()));
  EXPECT_FALSE(unbounded.select(waiting, out));
  EXPECT_TRUE(out.empty());  // select clears stale scratch

  rs::PlanningWindow large;
  large.top_k = 2;  // == queue size: nothing to cut
  EXPECT_FALSE(large.select(waiting, out));
}

TEST(PlanningWindow, ArrivalOrderTakesTheQueuePrefix) {
  std::vector<rs::Job> waiting = {make_job(1, 1, 1, 30, 0.0), make_job(2, 1, 1, 20, 1.0),
                                  make_job(3, 1, 1, 10, 2.0), make_job(4, 1, 1, 5, 3.0)};
  rs::PlanningWindow window;
  window.top_k = 2;
  std::vector<std::uint32_t> out;
  ASSERT_TRUE(window.select(waiting, out));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
}

TEST(PlanningWindow, ShortestFirstKeepsTheHeadPlusKMinusOneShortest) {
  std::vector<rs::Job> waiting = {make_job(1, 1, 1, 30, 0.0), make_job(2, 1, 1, 5, 1.0),
                                  make_job(3, 1, 1, 10, 2.0), make_job(4, 1, 1, 40, 3.0),
                                  make_job(5, 1, 1, 7, 4.0)};
  rs::PlanningWindow window;
  window.top_k = 3;
  window.order = rs::PlanningWindow::Order::kShortestFirst;
  std::vector<std::uint32_t> out;
  ASSERT_TRUE(window.select(waiting, out));
  // The head (position 0, 30s - always observable: it anchors reservation
  // reasoning) plus jobs 2 (5s) and 5 (7s), as ascending queue positions.
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 4}));

  // K=1 degenerates to just the head.
  window.top_k = 1;
  ASSERT_TRUE(window.select(waiting, out));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST(ProblemView, WindowRestrictsTheJobSet) {
  rs::ClusterState cluster{rs::ClusterSpec::paper_default()};
  std::vector<rs::Job> waiting = {make_job(1, 1, 1, 30), make_job(2, 1, 1, 5),
                                  make_job(3, 1, 1, 10)};
  std::vector<rs::Job> ineligible;
  std::vector<rs::CompletedJob> completed;
  const rs::DecisionContext ctx{0.0, cluster, waiting, ineligible, {}, completed, false};

  const std::vector<std::uint32_t> positions = {0, 2};
  const ro::ProblemView windowed = ro::ProblemView::from_context(ctx, &positions);
  ASSERT_EQ(windowed.n_jobs(), 2u);
  EXPECT_EQ(windowed.job(0).id, 1);
  EXPECT_EQ(windowed.job(1).id, 3);
  EXPECT_EQ(windowed.n_pinned(), 0u);

  const ro::ProblemView full = ro::ProblemView::from_context(ctx);
  EXPECT_EQ(full.n_jobs(), 3u);
}

// The identity the tentpole promises: a window at least as large as the
// queue never changes a decision, for both the optimizer and the agent.
TEST(PlanningWindow, HugeWindowDecidesIdenticallyToUnbounded) {
  const auto jobs = rw::generate_scenario("hetero_mix", 60, 21);
  rs::Engine engine;

  ro::OptimizingSchedulerConfig base;
  base.seed = 5;
  ro::OptimizingScheduler opt_unbounded(base);
  auto windowed_cfg = base;
  windowed_cfg.window.top_k = 1u << 20;
  ro::OptimizingScheduler opt_windowed(windowed_cfg);
  const auto a = engine.run(jobs, opt_unbounded);
  const auto b = engine.run(jobs, opt_windowed);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].action, b.decisions[i].action) << "decision " << i;
  }
  EXPECT_EQ(a.final_time, b.final_time);

  reasched::core::AgentConfig agent_cfg;
  const auto agent_unbounded = reasched::core::make_fast_local_agent(9, agent_cfg);
  agent_cfg.window.top_k = 1u << 20;
  const auto agent_windowed = reasched::core::make_fast_local_agent(9, agent_cfg);
  const auto c = engine.run(jobs, *agent_unbounded);
  const auto d = engine.run(jobs, *agent_windowed);
  ASSERT_EQ(c.decisions.size(), d.decisions.size());
  for (std::size_t i = 0; i < c.decisions.size(); ++i) {
    EXPECT_EQ(c.decisions[i].action, d.decisions[i].action) << "decision " << i;
  }
  EXPECT_EQ(c.final_time, d.final_time);
}

// A genuinely bounded agent window: the run still completes, every decision
// targets a job the prompt listed, and the prompt advertises the cut.
TEST(PlanningWindow, BoundedAgentWindowKeepsPromptsAndDecisionsConsistent) {
  const auto jobs = rw::generate_scenario("long_job", 50, 33);
  reasched::core::AgentConfig config;
  config.window.top_k = 4;
  const auto agent = reasched::core::make_fast_local_agent(11, config);
  rs::Engine engine;
  const auto result = engine.run(jobs, *agent);
  EXPECT_EQ(result.completed.size(), jobs.size());
}
