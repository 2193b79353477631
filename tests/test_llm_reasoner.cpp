#include <gtest/gtest.h>

#include "decision_context_test_helper.hpp"
#include "llm/scripted_client.hpp"
#include "llm/simulated_reasoner.hpp"
#include "llm/transcript.hpp"

namespace rl = reasched::llm;
namespace rs = reasched::sim;
using reasched::testing::CtxFixture;
using reasched::testing::make_job;

TEST(SimulatedReasoner, EmitsReActFormat) {
  CtxFixture f;
  f.waiting = {make_job(1, 4, 8, 100)};
  const auto dctx = f.ctx();
  rl::PromptContext pctx;
  pctx.decision = &dctx;

  rl::SimulatedReasoner model(rl::claude37_profile(), 42);
  rl::Request req;
  req.prompt = "prompt text";
  req.context = &pctx;
  const auto resp = model.complete(req);

  EXPECT_EQ(resp.text.rfind("Thought: ", 0), 0u);
  EXPECT_NE(resp.text.find("\nAction: StartJob(job_id=1)"), std::string::npos);
  EXPECT_GT(resp.latency_seconds, 0.0);
  EXPECT_GT(resp.prompt_tokens, 0);
  EXPECT_GT(resp.completion_tokens, 0);
  EXPECT_EQ(resp.model, "claude-3-7-sonnet@vertex");
  EXPECT_EQ(model.last_decision().action, rs::Action::start(1));
}

TEST(SimulatedReasoner, RequiresStructuredContext) {
  rl::SimulatedReasoner model(rl::claude37_profile(), 1);
  rl::Request req;
  req.prompt = "no context attached";
  EXPECT_THROW(model.complete(req), std::invalid_argument);
}

TEST(SimulatedReasoner, DeterministicPerSeedAfterReset) {
  CtxFixture f;
  for (int i = 1; i <= 6; ++i) f.waiting.push_back(make_job(i, 4 * i, 8, 100.0 * i));
  const auto dctx = f.ctx();
  rl::PromptContext pctx;
  pctx.decision = &dctx;
  rl::Request req;
  req.prompt = "p";
  req.context = &pctx;

  rl::SimulatedReasoner a(rl::o4mini_profile(), 5);
  const auto r1 = a.complete(req);
  a.reset();
  const auto r2 = a.complete(req);
  EXPECT_EQ(r1.text, r2.text);
  EXPECT_DOUBLE_EQ(r1.latency_seconds, r2.latency_seconds);

  rl::SimulatedReasoner b(rl::o4mini_profile(), 6);
  const auto r3 = b.complete(req);
  // Different seeds must differ in latency (continuous distribution).
  EXPECT_NE(r1.latency_seconds, r3.latency_seconds);
}

TEST(SimulatedReasoner, CompletionTokensIncludeHiddenReasoning) {
  CtxFixture f;
  f.waiting = {make_job(1, 4, 8, 100)};
  const auto dctx = f.ctx();
  rl::PromptContext pctx;
  pctx.decision = &dctx;
  rl::Request req;
  req.prompt = "p";
  req.context = &pctx;

  rl::SimulatedReasoner claude(rl::claude37_profile(), 1);
  rl::SimulatedReasoner o4(rl::o4mini_profile(), 1);
  const auto rc = claude.complete(req);
  const auto ro = o4.complete(req);
  // O4's "reasoning effort: high" burns far more completion tokens.
  EXPECT_GT(ro.completion_tokens, rc.completion_tokens + 1000);
}

TEST(ScriptedClient, ReplaysAndRecords) {
  rl::ScriptedClient client({"Action: Delay", "Action: Stop"});
  rl::Request req;
  req.prompt = "first prompt";
  EXPECT_EQ(client.complete(req).text, "Action: Delay");
  req.prompt = "second prompt";
  EXPECT_EQ(client.complete(req).text, "Action: Stop");
  EXPECT_TRUE(client.exhausted());
  // repeat_last keeps serving the final response.
  EXPECT_EQ(client.complete(req).text, "Action: Stop");
  ASSERT_EQ(client.prompts().size(), 3u);
  EXPECT_EQ(client.prompts()[0], "first prompt");
}

TEST(ScriptedClient, ThrowsWhenExhaustedAndNoRepeat) {
  rl::ScriptedClient client({"Action: Delay"});
  client.repeat_last = false;
  rl::Request req;
  client.complete(req);
  EXPECT_THROW(client.complete(req), std::runtime_error);
}

TEST(ScriptedClient, ResetRestartsScript) {
  rl::ScriptedClient client({"A", "B"});
  rl::Request req;
  client.complete(req);
  client.reset();
  EXPECT_EQ(client.complete(req).text, "A");
  EXPECT_EQ(client.prompts().size(), 1u);
}

TEST(Transcript, SuccessfulExcludesDelaysAndRejections) {
  rl::Transcript t;
  t.add({5.0, 100, 50, rs::ActionType::kStartJob, true});
  t.add({7.0, 100, 50, rs::ActionType::kDelay, true});         // delay: excluded
  t.add({9.0, 100, 50, rs::ActionType::kStartJob, false});     // rejected: excluded
  t.add({11.0, 100, 50, rs::ActionType::kBackfillJob, true});  // counted
  EXPECT_EQ(t.n_calls(), 4u);
  EXPECT_EQ(t.n_successful(), 2u);
  EXPECT_DOUBLE_EQ(t.total_elapsed_successful(), 16.0);
  EXPECT_EQ(t.successful_latencies(), (std::vector<double>{5.0, 11.0}));
  EXPECT_EQ(t.total_prompt_tokens(), 400);
  EXPECT_EQ(t.total_completion_tokens(), 200);
}

TEST(Transcript, VerdictUpdatesLastCall) {
  rl::Transcript t;
  EXPECT_THROW(t.set_last_verdict(true), std::logic_error);
  t.add({5.0, 100, 50, rs::ActionType::kStartJob, false});
  t.set_last_verdict(true);
  EXPECT_EQ(t.n_successful(), 1u);
}
