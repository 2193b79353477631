#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/planning_window.hpp"
#include "sim/scheduler.hpp"
#include "util/spec_grammar.hpp"

namespace reasched::harness {

/// Thrown for every user-input error in the spec layer: spec-string grammar
/// violations, unknown method names, unknown or ill-typed parameters. The
/// message always names the offending spec/key and what would be accepted.
class MethodSpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A scheduler variant as data: a canonical registry name plus a string
/// parameter bag, round-trippable through a compact spec string
///
///   spec   := name [ '?' key '=' value ( '&' key '=' value )* ]
///   name   := [a-z0-9_.:-]+        e.g. "fcfs", "opt:portfolio"
///   key    := [a-z0-9_]+           e.g. "budget", "window"
///
/// The stage grammar (including percent-encoding of reserved characters in
/// values) is shared with `workload::ScenarioSpec` via util/spec_grammar.
///
/// e.g. `fcfs`, `opt:portfolio?budget=2000&window=sjf:64`,
/// `agent:claude37?window=arrival:32&scratchpad=false`. Parameters are typed
/// and validated when the registry builds the scheduler (unknown keys and
/// ill-typed values are rejected with actionable errors), not at parse time,
/// so specs can be constructed for methods registered later. Ordering and
/// equality are value semantics over (name, params) - a `MethodSpec` is a
/// grid-axis key.
struct MethodSpec {
  std::string name;
  std::map<std::string, std::string> params;

  MethodSpec() = default;
  /// Parsing constructors so spec literals drop in wherever a method is
  /// expected (`config.methods = {"fcfs", "opt:portfolio?window=sjf:64"}`).
  /// Throw MethodSpecError on grammar violations.
  MethodSpec(const std::string& spec);  // NOLINT(google-explicit-constructor)
  MethodSpec(const char* spec);         // NOLINT(google-explicit-constructor)
  MethodSpec(std::string name_in, std::map<std::string, std::string> params_in);

  /// Parse a spec string; throws MethodSpecError with the offending token.
  static MethodSpec parse(std::string_view spec);

  /// Canonical compact form: `name` or `name?k=v&k=v` with keys in sorted
  /// order. parse(to_string()) == *this for every valid spec.
  std::string to_string() const;

  /// Value of `key`, or nullptr when absent.
  const std::string* find_param(const std::string& key) const;

  friend bool operator==(const MethodSpec& a, const MethodSpec& b) {
    return a.name == b.name && a.params == b.params;
  }
  friend bool operator!=(const MethodSpec& a, const MethodSpec& b) { return !(a == b); }
  friend bool operator<(const MethodSpec& a, const MethodSpec& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.params < b.params;
  }
};

/// Typed access to a spec's parameter bag, used by registered builders.
/// Every getter throws MethodSpecError naming the method, the key and the
/// offending value when a present parameter fails to parse. Absent keys
/// yield `fallback` for get_int/get_bool; get_window differs: an absent key
/// is always the unbounded paper-semantics window, and its argument is only
/// the `auto` expansion (see below).
class ParamReader {
 public:
  explicit ParamReader(const MethodSpec& spec) : spec_(&spec) {}

  long long get_int(const std::string& key, long long fallback, long long min_value = 0,
                    long long max_value = std::numeric_limits<long long>::max()) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Planning-window grammar: `K` | `arrival:K` | `sjf:K` | `auto`, where
  /// K = 0 means unbounded (the paper's all-jobs semantics) and `auto`
  /// expands to `auto_value`, the method's documented trace-scale default.
  /// An *absent* key returns the unbounded window, NOT `auto_value` - the
  /// canonical parameter-free specs must keep paper semantics bit-exactly.
  sim::PlanningWindow get_window(const std::string& key,
                                 const sim::PlanningWindow& auto_value) const;

 private:
  const MethodSpec* spec_;
};

/// Render a window as a spec parameter value (`arrival:32`, `sjf:64`).
std::string window_to_string(const sim::PlanningWindow& window);

/// One declared parameter of a registered method (documentation + default;
/// the registry rejects keys that are not declared here). The shape is the
/// shared spec-grammar one, so method and scenario registries list their
/// parameters identically.
using ParamInfo = util::SpecParamInfo;

/// One registered scheduler family: canonical name, display label (matches
/// the built Scheduler::name() for the parameter-free spec), declared
/// parameters and the builder turning (spec, seed) into a scheduler.
struct MethodInfo {
  std::string name;           ///< canonical registry key, e.g. "agent:claude37"
  std::string display_label;  ///< presentation label, e.g. "Claude 3.7"
  std::string doc;            ///< one-line description for --list-methods
  bool is_llm = false;        ///< contributes LLM overhead accounting
  std::vector<ParamInfo> params;
  std::function<std::unique_ptr<sim::Scheduler>(const MethodSpec&, std::uint64_t seed)> build;
};

/// String-keyed registry of every constructible scheduler variant. The
/// built-in families self-register per layer (sched::register_methods,
/// opt::register_methods, core::register_methods) on first use of
/// `instance()`; extensions may `add()` more at startup. The registry
/// freezes at the first lookup: reads are lock-free and the sweep layer
/// reads from worker threads, so a late `add()` (after any
/// find/at/names/describe/build) throws std::logic_error instead of racing
/// the readers.
class MethodRegistry {
 public:
  /// The process-wide registry, with all built-in methods registered.
  static MethodRegistry& instance();

  /// Register a method; throws std::logic_error on duplicate or empty name,
  /// or on registration after the registry froze.
  void add(MethodInfo info);

  const MethodInfo* find(const std::string& name) const;
  /// Lookup that throws MethodSpecError listing registered names on a miss.
  const MethodInfo& at(const std::string& name) const;
  /// Registered canonical names, sorted.
  std::vector<std::string> names() const;

  /// Validate the spec against the method's declared parameters (unknown
  /// keys rejected with the accepted set) and build the scheduler.
  std::unique_ptr<sim::Scheduler> build(const MethodSpec& spec, std::uint64_t seed) const;

  /// Human-readable listing of every method with parameters and defaults
  /// (`compare_schedulers --list-methods`).
  std::string describe() const;

  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

 private:
  void freeze() const { frozen_.store(true, std::memory_order_release); }

  std::map<std::string, MethodInfo> methods_;
  mutable std::atomic<bool> frozen_{false};
};

/// Presentation label for a spec: the registry display label, plus the
/// parameter bag (`Claude 3.7?window=arrival:32`) whenever parameters are
/// present - even ones spelling out a default, since labels feed cell_seed
/// and two differently-written specs are two grid axis values. Only the
/// parameter-free canonical spec labels as the bare pre-registry string.
std::string method_label(const MethodSpec& spec);

/// Drop later duplicates (value equality), preserving first-seen order -
/// the sweep's method-axis semantics, shared with CLI panel assembly.
std::vector<MethodSpec> dedup_methods(const std::vector<MethodSpec>& methods);

}  // namespace reasched::harness
