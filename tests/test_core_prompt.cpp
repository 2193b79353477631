#include <gtest/gtest.h>

#include "core/objectives.hpp"
#include "core/prompt_builder.hpp"
#include "decision_context_test_helper.hpp"

namespace rc = reasched::core;
namespace rs = reasched::sim;
using reasched::testing::CtxFixture;
using reasched::testing::make_job;

TEST(PromptBuilder, EmptySystemMatchesPaperShape) {
  CtxFixture f;
  const rc::PromptBuilder builder{rc::AgentConfig{}};
  const std::string prompt = builder.build(f.ctx(0.0), "(nothing yet)\n");

  // The paper's prompt sections, in order (Section 3.4).
  for (const char* fragment :
       {"You are an expert HPC resource manager",
        "System capacity: 256 nodes, 2048 GB memory", "Current time: 0",
        "Available Nodes: 256", "Available Memory: 2048 GB", "Running Jobs:\nNone",
        "Completed Jobs:\nNone", "Waiting Jobs (eligible to schedule):\nNone",
        "# Scratchpad (Decision History)", "(nothing yet)",
        "Your scheduling objectives are:", "Fairness: Minimize variance",
        "Trade-offs are allowed", "StartJob(job_id=X)", "BackfillJob(job_id=Y)",
        "Thought: <your reasoning>", "Action: <your action>"}) {
    EXPECT_NE(prompt.find(fragment), std::string::npos) << "missing: " << fragment;
  }
}

TEST(PromptBuilder, ListsRunningAndWaitingJobs) {
  CtxFixture f;
  f.cluster.allocate(make_job(46, 256, 128, 20000), 0.0);
  f.waiting = {make_job(32, 256, 8, 147, 0.0)};
  const rc::PromptBuilder builder{rc::AgentConfig{}};
  const std::string prompt = builder.build(f.ctx(1554.0), "(nothing yet)\n");

  EXPECT_NE(prompt.find("Current time: 1554"), std::string::npos);
  EXPECT_NE(prompt.find("Available Nodes: 0"), std::string::npos);
  EXPECT_NE(prompt.find("Job 46: 256 Nodes, 128 GB"), std::string::npos);
  EXPECT_NE(prompt.find("Job 32: 256 Nodes, 8 GB, walltime=147"), std::string::npos);
  EXPECT_NE(prompt.find("waited 1554s"), std::string::npos);
}

TEST(PromptBuilder, ShowsCompletedSummaryAndDependencies) {
  CtxFixture f;
  f.completed.push_back({make_job(1, 1, 1, 10), 0.0, 10.0});
  f.completed.push_back({make_job(2, 1, 1, 10), 0.0, 10.0});
  auto dep = make_job(3, 1, 1, 10);
  dep.dependencies = {1, 2};
  f.ineligible.push_back(dep);
  const rc::PromptBuilder builder{rc::AgentConfig{}};
  const std::string prompt = builder.build(f.ctx(20.0), "x\n");
  EXPECT_NE(prompt.find("2 job(s) completed"), std::string::npos);
  EXPECT_NE(prompt.find("waiting on dependencies"), std::string::npos);
  EXPECT_NE(prompt.find("Job 3 (depends on 2 job(s))"), std::string::npos);
}

TEST(PromptBuilder, ScratchpadTextEmbeddedVerbatim) {
  CtxFixture f;
  const rc::PromptBuilder builder{rc::AgentConfig{}};
  const std::string prompt =
      builder.build(f.ctx(), "[t=0] Action: StartJob(job_id=9)\n");
  EXPECT_NE(prompt.find("[t=0] Action: StartJob(job_id=9)"), std::string::npos);
}

TEST(ObjectivesBlock, ContainsAllFiveGoals) {
  const std::string block = rc::objectives_block();
  for (const char* goal : {"Fairness", "Makespan", "Utilization", "Throughput",
                           "Feasibility"}) {
    EXPECT_NE(block.find(goal), std::string::npos) << goal;
  }
}

TEST(ActionMenu, ListsFullActionSpace) {
  const std::string menu = rc::action_menu_block();
  for (const char* action : {"StartJob(job_id=X)", "BackfillJob(job_id=Y)", "Delay",
                             "Stop"}) {
    EXPECT_NE(menu.find(action), std::string::npos) << action;
  }
}

TEST(PromptBuilder, PolarisClusterCapacityRendered) {
  rs::ClusterState polaris(rs::ClusterSpec::polaris());
  std::vector<rs::Job> none;
  std::vector<rs::ClusterState::Allocation> running;
  std::vector<rs::CompletedJob> completed;
  const rs::DecisionContext ctx{0.0, polaris, none, none, running, completed, false};
  const rc::PromptBuilder builder{rc::AgentConfig{}};
  const std::string prompt = builder.build(ctx, "x\n");
  EXPECT_NE(prompt.find("System capacity: 560 nodes, 286720 GB memory"),
            std::string::npos);
}
