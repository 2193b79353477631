#include <gtest/gtest.h>

#include "llm/http_client.hpp"
#include "util/json_parser.hpp"

namespace rl = reasched::llm;
namespace ru = reasched::util;

TEST(ProviderPayload, AnthropicShape) {
  rl::Request req;
  req.prompt = "You are an expert HPC resource manager...";
  req.max_tokens = 5000;
  req.temperature = 0.0;
  const std::string payload =
      rl::build_provider_payload(rl::ProviderKind::kAnthropic, rl::claude37_profile(), req);
  const auto doc = ru::parse_json(payload);
  EXPECT_EQ(doc.at("model").as_string(), "claude-3-7-sonnet@vertex");
  EXPECT_DOUBLE_EQ(doc.at("max_tokens").as_number(), 5000.0);
  EXPECT_DOUBLE_EQ(doc.at("temperature").as_number(), 0.0);
  const auto& msg = doc.at("messages").at(std::size_t{0});
  EXPECT_EQ(msg.at("role").as_string(), "user");
  EXPECT_EQ(msg.at("content").as_string(), req.prompt);
}

TEST(ProviderPayload, OpenAiShapeWithReasoningEffort) {
  rl::Request req;
  req.prompt = "schedule things";
  req.max_tokens = 100000;
  const std::string payload =
      rl::build_provider_payload(rl::ProviderKind::kOpenAi, rl::o4mini_profile(), req);
  const auto doc = ru::parse_json(payload);
  EXPECT_EQ(doc.at("model").as_string(), "o4-mini@azure");
  // The paper ran O4-Mini at "reasoning effort: high"; temperature is fixed
  // internally and must not appear in the payload.
  EXPECT_EQ(doc.at("reasoning_effort").as_string(), "high");
  EXPECT_FALSE(doc.contains("temperature"));
  EXPECT_DOUBLE_EQ(doc.at("max_completion_tokens").as_number(), 100000.0);
}

TEST(ProviderResponse, AnthropicParsing) {
  const std::string body = R"({
    "content": [{"type": "text", "text": "Thought: ok\nAction: Delay"}],
    "usage": {"input_tokens": 900, "output_tokens": 120}
  })";
  EXPECT_EQ(rl::parse_provider_response(rl::ProviderKind::kAnthropic, body),
            "Thought: ok\nAction: Delay");
  const auto usage = rl::parse_provider_usage(rl::ProviderKind::kAnthropic, body);
  EXPECT_EQ(usage.prompt_tokens, 900);
  EXPECT_EQ(usage.completion_tokens, 120);
}

TEST(ProviderResponse, OpenAiParsing) {
  const std::string body = R"({
    "choices": [{"message": {"role": "assistant", "content": "Action: Stop"}}],
    "usage": {"prompt_tokens": 1500, "completion_tokens": 40}
  })";
  EXPECT_EQ(rl::parse_provider_response(rl::ProviderKind::kOpenAi, body), "Action: Stop");
  const auto usage = rl::parse_provider_usage(rl::ProviderKind::kOpenAi, body);
  EXPECT_EQ(usage.prompt_tokens, 1500);
  EXPECT_EQ(usage.completion_tokens, 40);
}

TEST(ProviderResponse, ErrorPayloadThrows) {
  const std::string body = R"({"error": {"type": "rate_limit", "message": "slow down"}})";
  EXPECT_THROW(rl::parse_provider_response(rl::ProviderKind::kAnthropic, body),
               std::runtime_error);
  try {
    rl::parse_provider_response(rl::ProviderKind::kOpenAi, body);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("slow down"), std::string::npos);
  }
}

TEST(ProviderResponse, MalformedThrows) {
  EXPECT_THROW(rl::parse_provider_response(rl::ProviderKind::kAnthropic, "{}"),
               std::runtime_error);
  EXPECT_THROW(rl::parse_provider_response(rl::ProviderKind::kOpenAi,
                                           R"({"choices": []})"),
               std::runtime_error);
  EXPECT_THROW(rl::parse_provider_response(rl::ProviderKind::kOpenAi, "not json"),
               std::runtime_error);
}

TEST(ProviderResponse, MissingUsageIsZero) {
  const auto usage = rl::parse_provider_usage(
      rl::ProviderKind::kAnthropic, R"({"content": [{"type":"text","text":"x"}]})");
  EXPECT_EQ(usage.prompt_tokens, 0);
  EXPECT_EQ(usage.completion_tokens, 0);
}

TEST(ProviderResponse, TokenCountsMustBeIntsInRange) {
  // Casting 1e300 to int is undefined behaviour, so each bad count is
  // refused by name.
  const auto expect_refused = [](rl::ProviderKind kind, const std::string& body,
                                 const std::string& field) {
    try {
      rl::parse_provider_usage(kind, body);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  expect_refused(rl::ProviderKind::kAnthropic, R"({"usage":{"input_tokens":1e300}})",
                 "input_tokens");
  expect_refused(rl::ProviderKind::kAnthropic,
                 R"({"usage":{"input_tokens":3,"output_tokens":2.5}})", "output_tokens");
  expect_refused(rl::ProviderKind::kOpenAi, R"({"usage":{"prompt_tokens":"12"}})",
                 "prompt_tokens");
  expect_refused(rl::ProviderKind::kOpenAi, R"({"usage":{"completion_tokens":-1e300}})",
                 "completion_tokens");
  const auto usage =
      rl::parse_provider_usage(rl::ProviderKind::kOpenAi, R"({"usage":{"prompt_tokens":7}})");
  EXPECT_EQ(usage.prompt_tokens, 7);
  EXPECT_EQ(usage.completion_tokens, 0);
}

TEST(HttpClient, EndToEndWithMockTransport) {
  // Canned Anthropic-shaped response; records the exchange for inspection.
  rl::HttpExchange seen;
  auto transport = [&seen](const rl::HttpExchange& ex) {
    seen = ex;
    return std::string(R"json({
      "content": [{"type": "text", "text": "Thought: t\nAction: StartJob(job_id=4)"}],
      "usage": {"input_tokens": 777, "output_tokens": 42}
    })json");
  };
  rl::HttpClient client(
      {rl::ProviderKind::kAnthropic, "https://example.invalid/v1/messages",
       "x-api-key: test"},
      rl::claude37_profile(), transport);

  rl::Request req;
  req.prompt = "the prompt";
  req.max_tokens = 5000;
  const auto resp = client.complete(req);

  EXPECT_EQ(resp.text, "Thought: t\nAction: StartJob(job_id=4)");
  EXPECT_EQ(resp.prompt_tokens, 777);
  EXPECT_EQ(resp.completion_tokens, 42);
  EXPECT_GE(resp.latency_seconds, 0.0);
  EXPECT_EQ(client.calls_made(), 1u);
  EXPECT_EQ(client.model_name(), "Claude 3.7");

  // The transport saw the configured endpoint, auth and a valid payload.
  EXPECT_EQ(seen.url, "https://example.invalid/v1/messages");
  EXPECT_EQ(seen.auth_header, "x-api-key: test");
  const auto payload = ru::parse_json(seen.body);
  EXPECT_EQ(payload.at("messages").at(std::size_t{0}).at("content").as_string(),
            "the prompt");
}

TEST(HttpClient, UsageFallbackToEstimates) {
  auto transport = [](const rl::HttpExchange&) {
    return std::string(R"({"content": [{"type": "text", "text": "Action: Delay"}]})");
  };
  rl::HttpClient client({rl::ProviderKind::kAnthropic, "u", "a"}, rl::claude37_profile(),
                        transport);
  rl::Request req;
  req.prompt = std::string(400, 'x');  // ~100 tokens
  const auto resp = client.complete(req);
  EXPECT_EQ(resp.prompt_tokens, 100);
  EXPECT_GT(resp.completion_tokens, 0);
}

TEST(HttpClient, NullTransportRejected) {
  EXPECT_THROW(rl::HttpClient({}, rl::claude37_profile(), nullptr),
               std::invalid_argument);
}

TEST(HttpClient, TransportErrorsPropagate) {
  auto transport = [](const rl::HttpExchange&) -> std::string {
    throw std::runtime_error("connection refused");
  };
  rl::HttpClient client({rl::ProviderKind::kOpenAi, "u", "a"}, rl::o4mini_profile(),
                        transport);
  rl::Request req;
  EXPECT_THROW(client.complete(req), std::runtime_error);
}
