#include "harness/method_registration.hpp"

#include "core/factory.hpp"
#include "harness/method_spec.hpp"

namespace reasched::core {

namespace {

/// Trace-scale-safe window for `window=auto`: the first 32 queued jobs in
/// arrival order (the head is always observable). Keeps prompt tokens,
/// reasoning tokens and per-decision scoring flat as trace queues deepen,
/// while preserving the arrival-ordered queue view the prompt reasons over.
/// The registered *default* stays unbounded (top_k = 0) so the canonical
/// paper panel keeps its recorded results bit-identical.
sim::PlanningWindow trace_default_window() {
  sim::PlanningWindow w;
  w.top_k = 32;
  w.order = sim::PlanningWindow::Order::kArrival;
  return w;
}

AgentConfig agent_config_from(const harness::MethodSpec& spec) {
  const harness::ParamReader params(spec);
  AgentConfig config;
  config.scratchpad_enabled = params.get_bool("scratchpad", config.scratchpad_enabled);
  config.window = params.get_window("window", trace_default_window());
  return config;
}

std::vector<util::SpecParamInfo> agent_params() {
  const AgentConfig defaults;
  return {{"window", "window", harness::window_to_string(sim::PlanningWindow{}),
           "Planning window K|order:K|auto (orders: arrival, sjf); 0 = unbounded paper "
           "semantics, auto = arrival:32, the trace-scale default."},
          {"scratchpad", "bool", defaults.scratchpad_enabled ? "true" : "false",
           "Persistent scratchpad memory across timesteps (paper Section 2.2)."}};
}

}  // namespace

void register_methods(harness::MethodRegistry& registry) {
  struct AgentEntry {
    const char* name;
    const char* label;
    const char* doc;
    llm::ModelProfile (*profile)();
  };
  const AgentEntry agents[] = {
      {"agent:claude37", "Claude 3.7",
       "ReAct agent, Claude 3.7 Sonnet profile (paper Section 3.3).", llm::claude37_profile},
      {"agent:o4mini", "O4-Mini", "ReAct agent, O4-Mini profile (paper Section 3.3).",
       llm::o4mini_profile},
      {"agent:fastlocal", "Fast-Local",
       "ReAct agent, hypothetical on-prem low-latency profile (paper Section 6).",
       llm::fast_local_profile},
  };
  for (const auto& agent : agents) {
    registry.add({.name = agent.name,
                  .display_label = agent.label,
                  .doc = agent.doc,
                  .params = agent_params(),
                  .build = [profile = agent.profile](const harness::MethodSpec& spec,
                                                     std::uint64_t seed) {
                    return make_agent(profile(), seed, agent_config_from(spec));
                  }});
  }
}

}  // namespace reasched::core
