#include "llm/http_client.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "llm/token_counter.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"

namespace reasched::llm {

std::string build_provider_payload(ProviderKind kind, const ModelProfile& profile,
                                   const Request& request) {
  util::JsonWriter w;
  switch (kind) {
    case ProviderKind::kAnthropic:
      // Anthropic messages API: model, max_tokens, temperature, messages[].
      w.begin_object()
          .kv("model", profile.api_id)
          .kv("max_tokens", request.max_tokens)
          .kv("temperature", request.temperature)
          .key("messages")
          .begin_array()
          .begin_object()
          .kv("role", "user")
          .kv("content", request.prompt)
          .end_object()
          .end_array()
          .end_object();
      break;
    case ProviderKind::kOpenAi:
      // OpenAI chat API with reasoning effort (the paper ran O4-Mini with
      // "reasoning effort: high"; temperature is fixed internally, so it is
      // deliberately omitted from the payload).
      w.begin_object()
          .kv("model", profile.api_id)
          .kv("max_completion_tokens", request.max_tokens)
          .kv("reasoning_effort", "high")
          .key("messages")
          .begin_array()
          .begin_object()
          .kv("role", "user")
          .kv("content", request.prompt)
          .end_object()
          .end_array()
          .end_object();
      break;
  }
  return w.str();
}

namespace {
void throw_on_provider_error(const util::JsonValue& doc) {
  if (doc.contains("error")) {
    const auto& err = doc.at("error");
    const std::string message =
        err.is_object() ? err.string_or("message", "unknown provider error")
                        : (err.is_string() ? err.as_string() : "unknown provider error");
    throw std::runtime_error("LLM provider error: " + message);
  }
}
}  // namespace

std::string parse_provider_response(ProviderKind kind, const std::string& body) {
  const auto doc = util::parse_json(body);
  throw_on_provider_error(doc);
  switch (kind) {
    case ProviderKind::kAnthropic: {
      // {"content": [{"type": "text", "text": "..."}], ...}
      const auto& content = doc.at("content");
      for (const auto& block : content.as_array()) {
        if (block.string_or("type", "text") == "text") {
          return block.at("text").as_string();
        }
      }
      throw std::runtime_error("Anthropic response: no text content block");
    }
    case ProviderKind::kOpenAi: {
      // {"choices": [{"message": {"content": "..."}}], ...}
      const auto& choices = doc.at("choices");
      if (choices.empty()) throw std::runtime_error("OpenAI response: empty choices");
      return choices.at(std::size_t{0}).at("message").at("content").as_string();
    }
  }
  throw std::runtime_error("unknown provider kind");
}

namespace {

/// usage[key] as a token count: 0 when absent, a std::runtime_error naming
/// the field unless it is an integer in int's range.
int token_count(const util::JsonValue& usage, const char* key) {
  const util::JsonValue* field = usage.find(key);
  if (field == nullptr) return 0;
  const std::optional<int> n = field->exact_int();
  if (!n) {
    throw std::runtime_error(std::string("provider usage: \"") + key +
                             "\" must be an integer in int range");
  }
  return *n;
}

}  // namespace

ProviderUsage parse_provider_usage(ProviderKind kind, const std::string& body) {
  const auto doc = util::parse_json(body);
  ProviderUsage usage;
  if (!doc.contains("usage")) return usage;
  const auto& u = doc.at("usage");
  const bool anthropic = kind == ProviderKind::kAnthropic;
  usage.prompt_tokens = token_count(u, anthropic ? "input_tokens" : "prompt_tokens");
  usage.completion_tokens = token_count(u, anthropic ? "output_tokens" : "completion_tokens");
  return usage;
}

HttpClient::HttpClient(Options options, ModelProfile profile, HttpTransport transport)
    : options_(std::move(options)),
      profile_(std::move(profile)),
      transport_(std::move(transport)) {
  if (!transport_) throw std::invalid_argument("HttpClient: null transport");
}

Response HttpClient::complete(const Request& request) {
  HttpExchange exchange;
  exchange.url = options_.endpoint_url;
  exchange.auth_header = options_.auth_header;
  exchange.body = build_provider_payload(options_.provider, profile_, request);

  const auto started = std::chrono::steady_clock::now();
  const std::string body = transport_(exchange);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  ++calls_;

  Response resp;
  resp.text = parse_provider_response(options_.provider, body);
  resp.latency_seconds = elapsed;
  resp.model = profile_.api_id;
  const ProviderUsage usage = parse_provider_usage(options_.provider, body);
  resp.prompt_tokens =
      usage.prompt_tokens > 0 ? usage.prompt_tokens : estimate_tokens(request.prompt);
  resp.completion_tokens =
      usage.completion_tokens > 0 ? usage.completion_tokens : estimate_tokens(resp.text);
  return resp;
}

}  // namespace reasched::llm
