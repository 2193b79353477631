#pragma once

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reasched::util {

/// The spec-string layer shared by the harness method axis
/// (`harness::MethodSpec`) and the workload scenario axis
/// (`workload::ScenarioSpec`): a registry name plus a `?key=value&...`
/// parameter bag per stage. Factoring the stage grammar, its error type and
/// the typed parameter reader here keeps the two axes bit-compatible -
/// percent-encoding, key validation, duplicate detection, canonical
/// serialization and value typing can never drift apart.
///
///   stage  := name [ '?' key '=' value ( '&' key '=' value )* ]
///   name   := [a-z0-9_.:-]+
///   key    := [a-z0-9_]+
///   value  := any characters; the reserved set  % & = ? | ( ) , and
///             whitespace travels percent-encoded (`%26` for '&', ...)
///
/// Values are stored decoded; `SpecStage::to_string` re-encodes exactly the
/// reserved set, so parse(to_string()) is the identity and a canonical spec
/// with ordinary values is byte-identical to its raw form.

/// Thrown for every user-input error on either spec axis: grammar
/// violations, unknown names, unknown or ill-typed parameters, and scenario
/// transforms that break the cluster-fit guarantee. The message always names
/// the offending spec/key and what would be accepted.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One declared parameter of a registered spec family, shared between
/// `--list-methods` and `--list-scenarios` output (documentation + default;
/// registries reject keys that are not declared).
struct SpecParamInfo {
  std::string key;
  std::string type;           ///< "int", "bool", "double", "range", "time", ...
  std::string default_value;  ///< rendered default, as the listings print it
  std::string doc;
};

/// One stage: a registry name plus its parameter bag. Ordering and equality
/// are value semantics over (name, params), so a stage is a grid-axis key.
struct SpecStage {
  std::string name;
  std::map<std::string, std::string> params;

  /// Canonical compact form: `name` or `name?k=v&k=v`, keys in sorted order
  /// (std::map), values percent-encoded. parse(to_string()) == identity.
  std::string to_string() const;

  /// Value of `key`, or nullptr when absent.
  const std::string* find_param(const std::string& key) const;

  friend bool operator==(const SpecStage& a, const SpecStage& b) {
    return a.name == b.name && a.params == b.params;
  }
  friend bool operator<(const SpecStage& a, const SpecStage& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.params < b.params;
  }
};

/// Parse `name[?key=value&...]`. `kind` prefixes every error message
/// ("method", "scenario", "transform") so the text names the axis the user
/// actually typed a spec for. Values are percent-decoded.
SpecStage parse_spec_stage(std::string_view s, std::string_view kind);

/// Split on `delim` at paren depth zero - the pipeline ('|'), mix-component
/// (',') and weight (':') separators must not fire inside `mix(...)`.
std::vector<std::string> split_outside_parens(std::string_view s, char delim);

/// Typed access to a stage's parameter bag, used by registered builders,
/// generators and transforms. Every getter throws SpecError naming the
/// stage, the key and the offending value when a present parameter fails to
/// parse, falls outside its range or (for numbers) is not finite; absent
/// keys yield the fallback.
class SpecParamReader {
 public:
  /// `kind` opens every error message: "method 'fcfs': ...", "stage 'dag': ...".
  explicit SpecParamReader(const SpecStage& stage, const char* kind = "stage")
      : stage_(&stage), kind_(kind) {}

  long long get_int(const std::string& key, long long fallback, long long min_value = 0,
                    long long max_value = std::numeric_limits<long long>::max()) const;
  double get_double(const std::string& key, double fallback, double min_value,
                    double max_value) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Required-string form: throws when the key is absent or empty.
  std::string require_string(const std::string& key) const;
  /// `MIN:MAX` range of doubles (e.g. `walltime_noise=1.0:3.0`); a single
  /// value V is accepted as V:V. Requires min_value <= MIN <= MAX.
  std::pair<double, double> get_range(const std::string& key, double fallback_min,
                                      double fallback_max, double min_value) const;
  /// Duration in seconds with optional unit suffix: `90`, `30m`, `12h`,
  /// `30d` (s/m/h/d). Returns `fallback` when absent.
  double get_duration(const std::string& key, double fallback) const;

 protected:
  const SpecStage& stage() const { return *stage_; }
  /// Throw "<kind> '<name>': parameter '<key>' <problem>, got '<value>'".
  [[noreturn]] void fail(const std::string& key, const std::string& problem) const;

 private:
  const SpecStage* stage_;
  const char* kind_;
};

}  // namespace reasched::util
