#pragma once

#include <functional>
#include <string>

#include "llm/message.hpp"
#include "llm/model_profile.hpp"

namespace reasched::llm {

/// Wire-level request/response pair, transport-agnostic.
struct HttpExchange {
  std::string url;
  std::string body;           ///< JSON payload
  std::string auth_header;    ///< e.g. "x-api-key: ..." / "Authorization: Bearer ..."
};

/// Transport = "take this POST, give me the response body". Production code
/// plugs libcurl or a vendor SDK here; tests plug canned JSON. Keeping the
/// transport out of the library is what makes the whole client testable
/// offline (no network access needed - see ARCHITECTURE.md "Substitutions").
using HttpTransport = std::function<std::string(const HttpExchange&)>;

/// The two provider wire formats the paper used (Section 3.3):
///  - Anthropic messages API (Claude 3.7 via Vertex AI)
///  - OpenAI chat/reasoning API (O4-Mini via Azure)
enum class ProviderKind { kAnthropic, kOpenAi };

/// Serialize a completion request into the provider's JSON payload.
/// Exposed separately so payload formatting is unit-testable.
std::string build_provider_payload(ProviderKind kind, const ModelProfile& profile,
                                   const Request& request);

/// Extract the completion text from a provider response body.
/// Anthropic: content[0].text; OpenAI: choices[0].message.content.
/// Throws std::runtime_error on provider error payloads or missing fields.
std::string parse_provider_response(ProviderKind kind, const std::string& body);

/// Extract token usage if present (input/prompt and output/completion).
struct ProviderUsage {
  int prompt_tokens = 0;
  int completion_tokens = 0;
};
ProviderUsage parse_provider_usage(ProviderKind kind, const std::string& body);

/// A real-LLM client in the same seam as SimulatedReasoner: renders the
/// provider payload, calls the injected transport, and decodes the response
/// text + usage. Latency is measured as wall-clock around the transport
/// call. Drop-in for the ReAct agent:
///
///   auto client = std::make_shared<HttpClient>(
///       HttpClient::Options{ProviderKind::kAnthropic,
///                           "https://...:predict", "x-api-key: $KEY"},
///       claude37_profile(), my_curl_transport);
///   core::ReActAgent agent(client, claude37_profile());
class HttpClient final : public Client {
 public:
  struct Options {
    ProviderKind provider = ProviderKind::kAnthropic;
    std::string endpoint_url;
    std::string auth_header;
  };

  HttpClient(Options options, ModelProfile profile, HttpTransport transport);

  Response complete(const Request& request) override;
  std::string model_name() const override { return profile_.display_name; }

  std::size_t calls_made() const { return calls_; }

 private:
  Options options_;
  ModelProfile profile_;
  HttpTransport transport_;
  std::size_t calls_ = 0;
};

}  // namespace reasched::llm
