#include "harness/method_spec.hpp"

#include <algorithm>
#include <set>

#include "harness/method_registration.hpp"
#include "util/string_utils.hpp"

namespace reasched::harness {

MethodSpec::MethodSpec(const std::string& spec) : MethodSpec(parse(spec)) {}

MethodSpec::MethodSpec(const char* spec) : MethodSpec(parse(spec)) {}

MethodSpec::MethodSpec(std::string name_in, std::map<std::string, std::string> params_in)
    : name(std::move(name_in)), params(std::move(params_in)) {}

MethodSpec MethodSpec::parse(std::string_view spec) {
  // The stage grammar (name/key charsets, duplicate detection,
  // percent-decoding of values) is shared with ScenarioSpec; only the error
  // type is this layer's own.
  try {
    auto parsed = util::parse_spec_stage(spec, "method");
    return MethodSpec(std::move(parsed.name), std::move(parsed.params));
  } catch (const util::SpecGrammarError& e) {
    throw MethodSpecError(e.what());
  }
}

std::string MethodSpec::to_string() const { return util::spec_stage_to_string(name, params); }

const std::string* MethodSpec::find_param(const std::string& key) const {
  const auto it = params.find(key);
  return it == params.end() ? nullptr : &it->second;
}

long long ParamReader::get_int(const std::string& key, long long fallback, long long min_value,
                               long long max_value) const {
  const std::string* v = spec_->find_param(key);
  if (v == nullptr) return fallback;
  const auto parsed = util::parse_int(*v);
  if (!parsed) {
    throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                          "' expects an integer, got '" + *v + "'");
  }
  if (*parsed < min_value || *parsed > max_value) {
    throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                          "' must be in [" + std::to_string(min_value) + ", " +
                          std::to_string(max_value) + "], got '" + *v + "'");
  }
  return *parsed;
}

bool ParamReader::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = spec_->find_param(key);
  if (v == nullptr) return fallback;
  const std::string lower = util::to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "off") return false;
  throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                        "' expects a boolean (true/false/1/0/on/off), got '" + *v + "'");
}

sim::PlanningWindow ParamReader::get_window(const std::string& key,
                                            const sim::PlanningWindow& auto_value) const {
  const std::string* v = spec_->find_param(key);
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
    throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                          "' expects K, order:K or auto (order: arrival|sjf), got '" + *v + "'");
  }

  sim::PlanningWindow window;
  if (order_token == "arrival") {
    window.order = sim::PlanningWindow::Order::kArrival;
  } else if (order_token == "sjf") {
    window.order = sim::PlanningWindow::Order::kShortestFirst;
  } else {
    throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                          "': unknown window order '" + order_token + "' (use arrival or sjf)");
  }
  const auto k = util::parse_int(k_token);
  if (!k || *k < 0) {
    throw MethodSpecError("method '" + spec_->name + "': parameter '" + key +
                          "': window size must be a non-negative integer, got '" + *v + "'");
  }
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

void MethodRegistry::add(MethodInfo info) {
  if (frozen()) {
    throw std::logic_error(
        "MethodRegistry: cannot add method '" + info.name +
        "' after the registry froze (first lookup already happened; register at startup, "
        "before any spec is resolved)");
  }
  if (info.name.empty()) throw std::logic_error("MethodRegistry::add: empty method name");
  if (!info.build) {
    throw std::logic_error("MethodRegistry::add: method '" + info.name + "' has no builder");
  }
  const std::string name = info.name;
  if (!methods_.emplace(name, std::move(info)).second) {
    throw std::logic_error("MethodRegistry::add: duplicate method name '" + name + "'");
  }
}

const MethodInfo* MethodRegistry::find(const std::string& name) const {
  freeze();
  const auto it = methods_.find(name);
  return it == methods_.end() ? nullptr : &it->second;
}

const MethodInfo& MethodRegistry::at(const std::string& name) const {
  const MethodInfo* info = find(name);
  if (info == nullptr) {
    throw MethodSpecError("unknown method '" + name + "'; registered methods: " +
                          util::join(names(), ", "));
  }
  return *info;
}

std::vector<std::string> MethodRegistry::names() const {
  freeze();
  std::vector<std::string> out;
  out.reserve(methods_.size());
  for (const auto& [name, info] : methods_) out.push_back(name);
  return out;  // std::map iteration: already sorted
}

std::unique_ptr<sim::Scheduler> MethodRegistry::build(const MethodSpec& spec,
                                                      std::uint64_t seed) const {
  const MethodInfo& info = at(spec.name);
  for (const auto& [key, value] : spec.params) {
    const bool declared = std::any_of(info.params.begin(), info.params.end(),
                                      [&](const ParamInfo& p) { return p.key == key; });
    if (!declared) {
      std::vector<std::string> accepted;
      for (const auto& p : info.params) accepted.push_back(p.key);
      throw MethodSpecError("method '" + spec.name + "' does not accept parameter '" + key +
                            "'; accepted parameters: " +
                            (accepted.empty() ? "(none)" : util::join(accepted, ", ")));
    }
  }
  return info.build(spec, seed);
}

std::string MethodRegistry::describe() const {
  freeze();
  std::string out;
  for (const auto& [name, info] : methods_) {
    out += util::format("%-18s %-14s %s\n", name.c_str(), info.display_label.c_str(),
                        info.doc.c_str());
    for (const auto& p : info.params) {
      out += util::format("    %-18s %-7s default=%-12s %s\n", p.key.c_str(), p.type.c_str(),
                          p.default_value.c_str(), p.doc.c_str());
    }
  }
  return out;
}

std::vector<MethodSpec> dedup_methods(const std::vector<MethodSpec>& methods) {
  std::vector<MethodSpec> unique;
  std::set<MethodSpec> seen;
  for (const auto& method : methods) {
    if (seen.insert(method).second) unique.push_back(method);
  }
  return unique;
}

std::string method_label(const MethodSpec& spec) {
  // Reuse the canonical serializer for the parameter suffix, so labels can
  // never drift from spec strings (labels feed cell_seed derivation).
  return MethodRegistry::instance().at(spec.name).display_label +
         spec.to_string().substr(spec.name.size());
}

}  // namespace reasched::harness
