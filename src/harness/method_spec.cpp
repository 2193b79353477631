#include "harness/method_spec.hpp"

#include "harness/method_registration.hpp"
#include "util/string_utils.hpp"

namespace reasched::harness {

MethodSpec::MethodSpec(const std::string& spec) : MethodSpec(parse(spec)) {}

MethodSpec::MethodSpec(const char* spec) : MethodSpec(parse(spec)) {}

MethodSpec::MethodSpec(std::string name_in, std::map<std::string, std::string> params_in)
    : util::SpecStage{std::move(name_in), std::move(params_in)} {}

MethodSpec MethodSpec::parse(std::string_view spec) {
  auto stage = util::parse_spec_stage(spec, "method");
  return MethodSpec(std::move(stage.name), std::move(stage.params));
}

sim::PlanningWindow ParamReader::get_window(const std::string& key,
                                            const sim::PlanningWindow& auto_value) const {
  const std::string* v = stage().find_param(key);
  if (v == nullptr) return {};  // absent: unbounded, the paper's semantics
  if (*v == "auto") return auto_value;

  const auto parts = util::split(*v, ':');
  std::string order_token = "arrival";
  std::string k_token;
  if (parts.size() == 1) {
    k_token = parts[0];
  } else if (parts.size() == 2) {
    order_token = parts[0];
    k_token = parts[1];
  } else {
    fail(key, "expects K, order:K or auto (order: arrival|sjf)");
  }

  sim::PlanningWindow window;
  if (order_token == "arrival") {
    window.order = sim::PlanningWindow::Order::kArrival;
  } else if (order_token == "sjf") {
    window.order = sim::PlanningWindow::Order::kShortestFirst;
  } else {
    fail(key, "has unknown window order '" + order_token + "' (use arrival or sjf)");
  }
  const auto k = util::parse_int(k_token);
  if (!k || *k < 0) fail(key, "expects a non-negative integer window size");
  window.top_k = static_cast<std::size_t>(*k);
  return window;
}

std::string window_to_string(const sim::PlanningWindow& window) {
  const char* order =
      window.order == sim::PlanningWindow::Order::kShortestFirst ? "sjf" : "arrival";
  return std::string(order) + ":" + std::to_string(window.top_k);
}

MethodRegistry& MethodRegistry::instance() {
  // Magic-static init is thread-safe; each layer's factories register their
  // builders here exactly once, before the first lookup returns. (Two
  // statics rather than a factory lambda: the registry holds an atomic
  // freeze flag and is immovable.)
  static MethodRegistry registry;
  static const bool initialized = [] {
    sched::register_methods(registry);
    opt::register_methods(registry);
    core::register_methods(registry);
    return true;
  }();
  (void)initialized;
  return registry;
}

std::string MethodRegistry::describe() const {
  std::string out;
  for (const auto& [name, info] : methods_.entries()) {
    out += util::format("%-18s %-14s %s\n", name.c_str(), info.display_label.c_str(),
                        info.doc.c_str());
    for (const auto& p : info.params) {
      out += util::format("    %-18s %-7s default=%-12s %s\n", p.key.c_str(), p.type.c_str(),
                          p.default_value.c_str(), p.doc.c_str());
    }
  }
  return out;
}

std::string method_label(const MethodSpec& spec) {
  // Reuse the canonical serializer for the parameter suffix, so labels can
  // never drift from spec strings (labels feed cell_seed derivation).
  return MethodRegistry::instance().at(spec.name).display_label +
         spec.to_string().substr(spec.name.size());
}

}  // namespace reasched::harness
