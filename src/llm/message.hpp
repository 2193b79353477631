#pragma once

#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace reasched::llm {

/// Structured view of the state a prompt was rendered from. Real HTTP
/// backends ignore it and consume only Request::prompt; the simulated
/// reasoner uses it so it never has to parse English back out of the prompt.
/// This is the one documented seam between "real" and "simulated" LLMs
/// (ARCHITECTURE.md, "Substitutions").
struct PromptContext {
  const sim::DecisionContext* decision = nullptr;
  /// Job ids rejected by constraint enforcement at the *current* timestep -
  /// the information the paper's feedback loop injects. Empty when the
  /// feedback channel is disabled (ablation).
  std::vector<sim::JobId> recently_rejected;
  /// Ascending positions into decision->waiting of the jobs inside the
  /// agent's planning window (sim::PlanningWindow::select output), or null
  /// when the window is unbounded. The prompt renders exactly these jobs,
  /// so the simulated reasoner must score exactly these candidates - the
  /// structured side channel mirrors what a real backend could read from
  /// the prompt text.
  const std::vector<std::uint32_t>* window = nullptr;
};

/// One completion request in the shape of a real chat-completions call.
struct Request {
  std::string prompt;
  int max_tokens = 5000;
  double temperature = 0.0;
  const PromptContext* context = nullptr;
};

/// One completion response with the accounting the overhead analysis needs.
struct Response {
  std::string text;
  /// Simulated API latency in seconds (sampled, never slept).
  double latency_seconds = 0.0;
  int prompt_tokens = 0;
  int completion_tokens = 0;
  std::string model;
};

/// Provider-agnostic client interface (paper Section 3.3 accesses O4-Mini
/// via Azure and Claude 3.7 via Vertex AI through exactly this seam).
class Client {
 public:
  virtual ~Client() = default;
  virtual Response complete(const Request& request) = 0;
  virtual std::string model_name() const = 0;
  /// Restore the initial (seeded) state so a fresh simulation is reproducible.
  virtual void reset();
};

}  // namespace reasched::llm
