#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/planning_window.hpp"
#include "sim/scheduler.hpp"
#include "util/spec_registry.hpp"

namespace reasched::harness {

/// A scheduler variant as data: a canonical registry name plus a string
/// parameter bag in the stage grammar shared with `workload::ScenarioSpec`
/// (util/spec_grammar.hpp), e.g. `fcfs`,
/// `opt:portfolio?budget=2000&window=sjf:64`,
/// `agent:claude37?window=arrival:32&scratchpad=false`. Parameters are typed
/// and validated when the registry builds the scheduler (unknown keys and
/// ill-typed values are rejected with actionable errors), not at parse time,
/// so specs can be constructed for methods registered later. Ordering and
/// equality are the stage's value semantics - a `MethodSpec` is a grid-axis
/// key.
struct MethodSpec : util::SpecStage {
  MethodSpec() = default;
  /// Parsing constructors so spec literals drop in wherever a method is
  /// expected (`config.methods = {"fcfs", "opt:portfolio?window=sjf:64"}`).
  /// Throw util::SpecError on grammar violations.
  MethodSpec(const std::string& spec);  // NOLINT(google-explicit-constructor)
  MethodSpec(const char* spec);         // NOLINT(google-explicit-constructor)
  MethodSpec(std::string name_in, std::map<std::string, std::string> params_in);

  /// Parse a spec string; throws util::SpecError with the offending token.
  static MethodSpec parse(std::string_view spec);
};

/// Typed access to a spec's parameter bag, used by registered builders:
/// the shared util::SpecParamReader (errors read "method '<name>': ...")
/// plus the planning-window grammar.
class ParamReader : public util::SpecParamReader {
 public:
  explicit ParamReader(const MethodSpec& spec) : util::SpecParamReader(spec, "method") {}

  /// Planning-window grammar: `K` | `arrival:K` | `sjf:K` | `auto`, where
  /// K = 0 means unbounded (the paper's all-jobs semantics) and `auto`
  /// expands to `auto_value`, the method's documented trace-scale default.
  /// An *absent* key returns the unbounded window, NOT `auto_value` - the
  /// canonical parameter-free specs must keep paper semantics bit-exactly.
  sim::PlanningWindow get_window(const std::string& key,
                                 const sim::PlanningWindow& auto_value) const;
};

/// Render a window as a spec parameter value (`arrival:32`, `sjf:64`).
std::string window_to_string(const sim::PlanningWindow& window);

/// One registered scheduler family: canonical name, display label (matches
/// the built Scheduler::name() for the parameter-free spec), declared
/// parameters and the builder turning (spec, seed) into a scheduler.
struct MethodInfo {
  std::string name;           ///< canonical registry key, e.g. "agent:claude37"
  std::string display_label;  ///< presentation label, e.g. "Claude 3.7"
  std::string doc;            ///< one-line description for --list-methods
  std::vector<util::SpecParamInfo> params;
  std::function<std::unique_ptr<sim::Scheduler>(const MethodSpec&, std::uint64_t seed)> build;
};

/// String-keyed registry of every constructible scheduler variant. The
/// built-in families self-register per layer (sched::register_methods,
/// opt::register_methods, core::register_methods) on first use of
/// `instance()`; extensions may `add()` more at startup. The registry
/// freezes at the first lookup (util::SpecFreeze): a late `add()` (after
/// any at/names/describe/build) throws std::logic_error.
class MethodRegistry {
 public:
  /// The process-wide registry, with all built-in methods registered.
  static MethodRegistry& instance();

  /// Register a method; throws std::logic_error on duplicate or empty name,
  /// a missing builder, or registration once the registry is frozen.
  void add(MethodInfo info) { methods_.add(std::move(info)); }

  /// Lookup that throws util::SpecError listing registered names on a miss.
  const MethodInfo& at(const std::string& name) const { return methods_.at(name); }
  /// Registered canonical names, sorted.
  std::vector<std::string> names() const { return methods_.names(); }

  /// Validate the spec against the method's declared parameters (unknown
  /// keys rejected with the accepted set) and build the scheduler.
  std::unique_ptr<sim::Scheduler> build(const MethodSpec& spec, std::uint64_t seed) const {
    return methods_.resolve(spec).build(spec, seed);
  }

  /// Human-readable listing of every method with parameters and defaults
  /// (`compare_schedulers --list-methods`).
  std::string describe() const;

  bool frozen() const { return freeze_.frozen(); }

 private:
  util::SpecFreeze freeze_;
  util::SpecTable<MethodInfo, &MethodInfo::build> methods_{freeze_, "MethodRegistry", "method"};
};

/// Presentation label for a spec: the registry display label, plus the
/// parameter bag (`Claude 3.7?window=arrival:32`) whenever parameters are
/// present - even ones spelling out a default, since labels feed cell_seed
/// and two differently-written specs are two grid axis values. Only the
/// parameter-free canonical spec labels as the bare pre-registry string.
std::string method_label(const MethodSpec& spec);

}  // namespace reasched::harness
