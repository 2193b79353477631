#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/react_agent.hpp"
#include "llm/scripted_client.hpp"
#include "sim/engine.hpp"
#include "workload/scenario_spec.hpp"

namespace rc = reasched::core;
namespace rl = reasched::llm;
namespace rs = reasched::sim;

namespace {
rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  j.user = 1 + id % 2;
  return j;
}

std::unique_ptr<rc::ReActAgent> scripted_agent(std::vector<std::string> responses,
                                               rc::AgentConfig config = {}) {
  auto client = std::make_shared<rl::ScriptedClient>(std::move(responses));
  return std::make_unique<rc::ReActAgent>(client, rl::claude37_profile(), config);
}
}  // namespace

TEST(ReActAgent, ExecutesScriptedSchedule) {
  auto agent = scripted_agent({
      "Thought: short job first for throughput\nAction: StartJob(job_id=2)",
      "Thought: now the long one\nAction: StartJob(job_id=1)",
      "Thought: all jobs have been scheduled\nAction: Stop",
  });
  rs::Engine engine;
  const auto result =
      engine.run({make_job(1, 10, 10, 500), make_job(2, 10, 10, 50)}, *agent);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.find(1).start_time, 0.0);
  ASSERT_GE(result.decisions.size(), 3u);
  EXPECT_EQ(result.decisions[0].action, rs::Action::start(2));
  // Thoughts flow into the decision records for interpretability.
  EXPECT_NE(result.decisions[0].thought.find("short job first"), std::string::npos);
}

TEST(ReActAgent, InvalidActionGetsFeedbackAndRecovers) {
  // The paper's Figure 2 recovery pattern: the agent proposes a job that
  // does not fit, constraint enforcement rejects it with feedback, and the
  // agent corrects itself on the next call.
  auto client = std::make_shared<rl::ScriptedClient>(std::vector<std::string>{
      "Action: StartJob(job_id=3)",  // occupy 250 of 256 nodes
      "Action: StartJob(job_id=1)",  // needs 256 nodes -> rejected
      "Action: Delay",               // corrected: wait for the release
      "Action: StartJob(job_id=1)",  // fits after job 3 completes
      "Action: StartJob(job_id=2)",
      "Action: Stop",
  });
  rc::ReActAgent agent(client, rl::claude37_profile());
  std::vector<rs::Job> jobs = {make_job(1, 256, 100, 50), make_job(2, 10, 10, 100),
                               make_job(3, 250, 100, 80)};
  rs::Engine engine;
  const auto result = engine.run(jobs, agent);
  EXPECT_EQ(result.completed.size(), 3u);
  EXPECT_GE(result.n_invalid_actions, 1u);
  EXPECT_GE(agent.scratchpad().rejected_count(), 1u);
  // The prompt issued after the rejection embeds the environment feedback,
  // closing the paper's natural-language correction loop.
  bool feedback_in_later_prompt = false;
  for (const auto& prompt : client->prompts()) {
    if (prompt.find("cannot be started") != std::string::npos) {
      feedback_in_later_prompt = true;
      break;
    }
  }
  EXPECT_TRUE(feedback_in_later_prompt);
}

TEST(ReActAgent, UnparseableResponseFailsSafeToDelay) {
  auto agent = scripted_agent({
      "I refuse to follow the format.",
      "Action: StartJob(job_id=1)",
      "Action: Stop",
  });
  rs::Engine engine;
  const auto result = engine.run({make_job(1, 1, 1, 10)}, *agent);
  EXPECT_EQ(result.completed.size(), 1u);
  EXPECT_EQ(agent->parse_failures(), 1u);
  // The formatting mistake is explained in the scratchpad for the next call.
  EXPECT_NE(agent->scratchpad().render(100000).find("could not be parsed"),
            std::string::npos);
}

TEST(ReActAgent, TranscriptTracksVerdicts) {
  auto agent = scripted_agent({
      "Action: StartJob(job_id=999)",  // invalid: unknown job
      "Action: StartJob(job_id=1)",
      "Action: Stop",
  });
  rs::Engine engine;
  engine.run({make_job(1, 1, 1, 10)}, *agent);
  const auto& t = agent->transcript();
  ASSERT_GE(t.n_calls(), 3u);
  EXPECT_FALSE(t.calls()[0].accepted);
  EXPECT_TRUE(t.calls()[1].accepted);
  EXPECT_EQ(t.n_successful(), 1u);  // only the accepted StartJob counts
}

TEST(ReActAgent, PromptContainsStateEachCall) {
  auto client = std::make_shared<rl::ScriptedClient>(std::vector<std::string>{
      "Action: StartJob(job_id=1)", "Action: Stop"});
  rc::ReActAgent agent(client, rl::claude37_profile());
  rs::Engine engine;
  engine.run({make_job(1, 4, 8, 10)}, agent);
  ASSERT_GE(client->prompts().size(), 2u);
  EXPECT_NE(client->prompts()[0].find("Job 1: 4 Nodes, 8 GB"), std::string::npos);
  // Second prompt shows the scratchpad history of the first decision.
  EXPECT_NE(client->prompts()[1].find("StartJob(job_id=1)"), std::string::npos);
}

TEST(ReActAgent, ScratchpadDisabledBlanksHistory) {
  rc::AgentConfig config;
  config.scratchpad_enabled = false;
  auto client = std::make_shared<rl::ScriptedClient>(std::vector<std::string>{
      "Action: StartJob(job_id=1)", "Action: Stop"});
  rc::ReActAgent agent(client, rl::claude37_profile(), config);
  rs::Engine engine;
  engine.run({make_job(1, 4, 8, 10)}, agent);
  // Even the second prompt claims an empty history.
  EXPECT_NE(client->prompts()[1].find("(nothing yet)"), std::string::npos);
}

TEST(ReActAgent, ResetClearsEverything) {
  auto agent = scripted_agent({"Action: StartJob(job_id=1)", "Action: Stop"});
  rs::Engine engine;
  engine.run({make_job(1, 1, 1, 10)}, *agent);
  EXPECT_GT(agent->transcript().n_calls(), 0u);
  agent->reset();
  EXPECT_EQ(agent->transcript().n_calls(), 0u);
  EXPECT_TRUE(agent->scratchpad().empty());
  EXPECT_EQ(agent->parse_failures(), 0u);
  EXPECT_TRUE(agent->last_thought().empty());
}

TEST(ReActAgent, FullRunWithSimulatedReasoner) {
  // End-to-end with the simulated Claude backend on a contended workload.
  const auto jobs = reasched::workload::generate_scenario("high_parallel", 20, 55);
  const auto agent = rc::make_claude37_agent(55);
  rs::Engine engine;
  const auto result = engine.run(jobs, *agent);
  EXPECT_EQ(result.completed.size(), 20u);
  // One call per decision; at least one per job placement plus the Stop.
  EXPECT_GE(agent->transcript().n_calls(), 21u);
  EXPECT_EQ(agent->transcript().n_successful(), 20u);
  EXPECT_GT(agent->transcript().total_elapsed_successful(), 0.0);
  // Agent name flows from the profile.
  EXPECT_EQ(agent->name(), "Claude 3.7");
}

TEST(ReActAgent, FactoryProfiles) {
  EXPECT_EQ(rc::make_claude37_agent(1)->name(), "Claude 3.7");
  EXPECT_EQ(rc::make_o4mini_agent(1)->name(), "O4-Mini");
  EXPECT_EQ(rc::make_fast_local_agent(1)->name(), "Fast-Local");
}
