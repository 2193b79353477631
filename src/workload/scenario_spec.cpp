#include "workload/scenario_spec.hpp"

#include <algorithm>
#include <charconv>
#include <set>
#include <tuple>

#include "util/string_utils.hpp"
#include "workload/scenario_registration.hpp"

namespace reasched::workload {

namespace {

/// Weights print in std::to_chars' shortest round-trip form ("0.2" stays
/// "0.2", full precision kept when needed), so parse(to_string()) preserves
/// the exact double - the canonical string is the cell's durable identity
/// and must reconstruct the identical largest-remainder split.
std::string format_weight(double w) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), w);
  return std::string(buf, result.ptr);
}

[[noreturn]] void grammar_error(const std::string& message) { throw ScenarioSpecError(message); }

ScenarioStage to_stage(util::ParsedStage&& parsed) {
  return ScenarioStage{std::move(parsed.name), std::move(parsed.params)};
}

/// Does `s` contain a raw paren-depth-0 ':' anywhere after a depth-0 '?'
/// (i.e. inside a parameter section)? Inside mix(...) such a colon is
/// indistinguishable from the spec:weight separator, so it must travel
/// percent-encoded; the serializer below writes it that way and the parser
/// rejects the raw form instead of silently mis-splitting.
bool has_raw_param_colon(std::string_view s) {
  int depth = 0;
  bool in_params = false;
  for (const char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth != 0) continue;
    if (c == '?') in_params = true;
    if (c == ':' && in_params) return true;
  }
  return false;
}

/// Three-way value comparison used by both operator< and operator==.
int compare(const ScenarioSpec& a, const ScenarioSpec& b);

int compare_stage(const ScenarioStage& a, const ScenarioStage& b) {
  if (a.name != b.name) return a.name < b.name ? -1 : 1;
  if (a.params != b.params) return a.params < b.params ? -1 : 1;
  return 0;
}

int compare(const ScenarioSpec& a, const ScenarioSpec& b) {
  if (const int c = compare_stage(a.base, b.base); c != 0) return c;
  if (a.components.size() != b.components.size()) {
    return a.components.size() < b.components.size() ? -1 : 1;
  }
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    if (const int c = compare(a.components[i].spec, b.components[i].spec); c != 0) return c;
    if (a.components[i].weight != b.components[i].weight) {
      return a.components[i].weight < b.components[i].weight ? -1 : 1;
    }
  }
  if (a.pipeline.size() != b.pipeline.size()) {
    return a.pipeline.size() < b.pipeline.size() ? -1 : 1;
  }
  for (std::size_t i = 0; i < a.pipeline.size(); ++i) {
    if (const int c = compare_stage(a.pipeline[i], b.pipeline[i]); c != 0) return c;
  }
  return 0;
}

}  // namespace

const std::string* ScenarioStage::find_param(const std::string& key) const {
  const auto it = params.find(key);
  return it == params.end() ? nullptr : &it->second;
}

ScenarioSpec::ScenarioSpec(const std::string& spec) : ScenarioSpec(parse(spec)) {}

ScenarioSpec::ScenarioSpec(const char* spec) : ScenarioSpec(parse(spec)) {}

ScenarioSpec ScenarioSpec::parse(std::string_view spec_in) {
  const std::string s = util::trim(spec_in);
  if (s.empty()) grammar_error("scenario spec is empty");

  ScenarioSpec out;
  try {
    const auto stages = util::split_outside_parens(s, '|');
    for (const auto& stage : stages) {
      if (util::trim(stage).empty()) {
        grammar_error("scenario spec '" + s +
                      "' has an empty pipeline stage (stray or trailing '|')");
      }
    }

    const std::string base_tok = util::trim(stages.front());
    if (base_tok.rfind("mix(", 0) == 0) {
      if (base_tok.back() != ')') {
        grammar_error("mix base '" + base_tok + "' is missing its closing ')'");
      }
      out.base.name = "mix";
      const std::string inner = base_tok.substr(4, base_tok.size() - 5);
      if (util::trim(inner).empty()) {
        grammar_error("mix() in spec '" + s + "' needs at least one spec:weight component");
      }
      for (const auto& comp_tok : util::split_outside_parens(inner, ',')) {
        // The weight separator is the *last* top-level ':'. A raw ':' inside
        // a component's parameter section would be indistinguishable from it
        // (`a?noise=1.0:3.0` = noise "1.0" with weight 3, or noise "1.0:3.0"
        // with the weight forgotten?), so the grammar requires it encoded -
        // `a?noise=1.0%3a3.0:0.7` - and rejects the ambiguous raw form.
        const auto parts = util::split_outside_parens(comp_tok, ':');
        if (parts.size() < 2 || util::trim(parts.back()).empty()) {
          grammar_error("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                        "' is not of the form spec:weight");
        }
        std::string spec_str = parts[0];
        for (std::size_t i = 1; i + 1 < parts.size(); ++i) spec_str += ":" + parts[i];
        if (has_raw_param_colon(spec_str)) {
          grammar_error("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                        "' has a raw ':' inside a parameter section, which is ambiguous "
                        "with the spec:weight separator; percent-encode it as %3a "
                        "(e.g. walltime_noise=1.0%3a3.0)");
        }
        const auto weight = util::parse_double(util::trim(parts.back()));
        if (!weight || !(*weight > 0.0)) {
          grammar_error("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                        "' needs a positive numeric weight, got '" + util::trim(parts.back()) +
                        "'");
        }
        out.components.push_back(MixComponent{parse(spec_str), *weight});
      }
    } else {
      out.base = to_stage(util::parse_spec_stage(base_tok, "scenario"));
      if (out.base.name == "mix") {
        grammar_error("scenario 'mix' takes parenthesized components: mix(spec:weight,...)");
      }
    }

    for (std::size_t i = 1; i < stages.size(); ++i) {
      out.pipeline.push_back(to_stage(util::parse_spec_stage(stages[i], "transform")));
    }
  } catch (const util::SpecGrammarError& e) {
    throw ScenarioSpecError(e.what());
  }
  return out;
}

namespace {

std::string component_to_string(const ScenarioSpec& spec, double weight) {
  const std::string inner = spec.to_string();
  std::string out;
  out.reserve(inner.size() + 8);
  int depth = 0;
  bool in_params = false;
  for (const char c : inner) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && c == '?') in_params = true;
    if (depth == 0 && c == ':' && in_params) {
      out += "%3a";  // keep parameter colons distinct from the weight separator
    } else {
      out += c;
    }
  }
  return out + ":" + format_weight(weight);
}

}  // namespace

std::string ScenarioSpec::to_string() const {
  std::string out;
  if (is_mix()) {
    out = "mix(";
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (i > 0) out += ',';
      out += component_to_string(components[i].spec, components[i].weight);
    }
    out += ')';
  } else {
    out = base.to_string();
  }
  for (const auto& stage : pipeline) out += "|" + stage.to_string();
  return out;
}

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) { return compare(a, b) == 0; }

bool operator<(const ScenarioSpec& a, const ScenarioSpec& b) { return compare(a, b) < 0; }

// ---------------------------------------------------------------------------
// StageParamReader

void StageParamReader::fail(const std::string& key, const std::string& expected) const {
  const std::string* v = stage_->find_param(key);
  throw ScenarioSpecError("stage '" + stage_->name + "': parameter '" + key + "' expects " +
                          expected + ", got '" + (v ? *v : "") + "'");
}

long long StageParamReader::get_int(const std::string& key, long long fallback,
                                    long long min_value, long long max_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const auto parsed = util::parse_int(*v);
  if (!parsed) fail(key, "an integer");
  if (*parsed < min_value || *parsed > max_value) {
    fail(key, "an integer in [" + std::to_string(min_value) + ", " + std::to_string(max_value) +
                  "]");
  }
  return *parsed;
}

double StageParamReader::get_double(const std::string& key, double fallback, double min_value,
                                    double max_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const auto parsed = util::parse_double(*v);
  if (!parsed || *parsed < min_value || *parsed > max_value) {
    fail(key, util::format("a number in [%g, %g]", min_value, max_value));
  }
  return *parsed;
}

bool StageParamReader::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const std::string lower = util::to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "off") return false;
  fail(key, "a boolean (true/false/1/0/on/off)");
}

std::string StageParamReader::get_string(const std::string& key,
                                         const std::string& fallback) const {
  const std::string* v = stage_->find_param(key);
  return v == nullptr ? fallback : *v;
}

std::string StageParamReader::require_string(const std::string& key) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr || v->empty()) {
    throw ScenarioSpecError("stage '" + stage_->name + "': required parameter '" + key +
                            "' is missing");
  }
  return *v;
}

std::pair<double, double> StageParamReader::get_range(const std::string& key,
                                                      double fallback_min, double fallback_max,
                                                      double min_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return {fallback_min, fallback_max};
  const auto parts = util::split(*v, ':');
  std::optional<double> lo, hi;
  if (parts.size() == 1) {
    lo = hi = util::parse_double(parts[0]);
  } else if (parts.size() == 2) {
    lo = util::parse_double(parts[0]);
    hi = util::parse_double(parts[1]);
  }
  if (!lo || !hi || *lo < min_value || *hi < *lo) {
    fail(key, util::format("MIN:MAX with %g <= MIN <= MAX", min_value));
  }
  return {*lo, *hi};
}

double StageParamReader::get_duration(const std::string& key, double fallback) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  std::string num = *v;
  double scale = 1.0;
  if (!num.empty()) {
    switch (num.back()) {
      case 's': scale = 1.0; num.pop_back(); break;
      case 'm': scale = 60.0; num.pop_back(); break;
      case 'h': scale = 3600.0; num.pop_back(); break;
      case 'd': scale = 86400.0; num.pop_back(); break;
      default: break;
    }
  }
  const auto parsed = util::parse_double(num);
  if (!parsed || *parsed < 0.0) fail(key, "a duration (seconds, or with s/m/h/d suffix)");
  return *parsed * scale;
}

// ---------------------------------------------------------------------------
// ScenarioRegistry

ScenarioRegistry& ScenarioRegistry::instance() {
  // Magic-static init is thread-safe; register_scenarios runs exactly once,
  // before the first lookup returns. (Two statics rather than a factory
  // lambda: the registry holds an atomic freeze flag and is immovable.)
  static ScenarioRegistry registry;
  static const bool initialized = [] {
    register_scenarios(registry);
    return true;
  }();
  (void)initialized;
  return registry;
}

void ScenarioRegistry::check_open(const std::string& what) const {
  if (frozen()) {
    throw std::logic_error("ScenarioRegistry: cannot add " + what +
                           " after the registry froze (first lookup already happened; "
                           "register at startup, before any spec is resolved)");
  }
}

void ScenarioRegistry::add(ScenarioInfo info) {
  check_open("scenario '" + info.name + "'");
  if (info.name.empty()) throw std::logic_error("ScenarioRegistry::add: empty scenario name");
  if (info.name == "mix") {
    throw std::logic_error("ScenarioRegistry::add: 'mix' is reserved spec grammar");
  }
  if (!info.generate) {
    throw std::logic_error("ScenarioRegistry::add: scenario '" + info.name +
                           "' has no generator");
  }
  const std::string name = info.name;
  if (!scenarios_.emplace(name, std::move(info)).second) {
    throw std::logic_error("ScenarioRegistry::add: duplicate scenario name '" + name + "'");
  }
}

void ScenarioRegistry::add_transform(TransformInfo info) {
  check_open("transform '" + info.name + "'");
  if (info.name.empty()) {
    throw std::logic_error("ScenarioRegistry::add_transform: empty transform name");
  }
  if (!info.apply) {
    throw std::logic_error("ScenarioRegistry::add_transform: transform '" + info.name +
                           "' has no apply callback");
  }
  const std::string name = info.name;
  if (!transforms_.emplace(name, std::move(info)).second) {
    throw std::logic_error("ScenarioRegistry::add_transform: duplicate transform name '" +
                           name + "'");
  }
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  freeze();
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

const ScenarioInfo& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioInfo* info = find(name);
  if (info == nullptr) {
    throw ScenarioSpecError("unknown scenario '" + name + "'; registered scenarios: " +
                            util::join(names(), ", "));
  }
  return *info;
}

const TransformInfo* ScenarioRegistry::find_transform(const std::string& name) const {
  freeze();
  const auto it = transforms_.find(name);
  return it == transforms_.end() ? nullptr : &it->second;
}

const TransformInfo& ScenarioRegistry::at_transform(const std::string& name) const {
  const TransformInfo* info = find_transform(name);
  if (info == nullptr) {
    throw ScenarioSpecError("unknown transform '" + name + "'; registered transforms: " +
                            util::join(transform_names(), ", "));
  }
  return *info;
}

std::vector<std::string> ScenarioRegistry::names() const {
  freeze();
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, info] : scenarios_) out.push_back(name);
  return out;
}

std::vector<std::string> ScenarioRegistry::transform_names() const {
  freeze();
  std::vector<std::string> out;
  out.reserve(transforms_.size());
  for (const auto& [name, info] : transforms_) out.push_back(name);
  return out;
}

namespace {

void check_declared(const ScenarioStage& stage, const std::vector<util::SpecParamInfo>& declared,
                    const char* kind) {
  for (const auto& [key, value] : stage.params) {
    const bool ok = std::any_of(declared.begin(), declared.end(),
                                [&](const util::SpecParamInfo& p) { return p.key == key; });
    if (!ok) {
      std::vector<std::string> accepted;
      for (const auto& p : declared) accepted.push_back(p.key);
      throw ScenarioSpecError(std::string(kind) + " '" + stage.name +
                              "' does not accept parameter '" + key +
                              "'; accepted parameters: " +
                              (accepted.empty() ? "(none)" : util::join(accepted, ", ")));
    }
  }
}

}  // namespace

void ScenarioRegistry::validate(const ScenarioSpec& spec) const {
  if (spec.is_mix()) {
    for (const auto& component : spec.components) validate(component.spec);
  } else {
    check_declared(spec.base, at(spec.base.name).params, "scenario");
  }
  for (const auto& stage : spec.pipeline) {
    check_declared(stage, at_transform(stage.name).params, "transform");
  }
}

std::string ScenarioRegistry::describe() const {
  freeze();
  std::string out = "Base scenarios (spec grammar: base[?key=value&...][|transform...]):\n";
  for (const auto& [name, info] : scenarios_) {
    out += util::format("  %-16s %-18s %s\n", name.c_str(), info.display_label.c_str(),
                        info.doc.c_str());
    for (const auto& p : info.params) {
      out += util::format("      %-16s %-7s default=%-10s %s\n", p.key.c_str(), p.type.c_str(),
                          p.default_value.c_str(), p.doc.c_str());
    }
  }
  out += "  mix(spec:weight,...)                  weighted combination of any specs\n";
  out += "\nTransforms (append with '|', applied left to right):\n";
  for (const auto& [name, info] : transforms_) {
    out += util::format("  %-16s %s\n", name.c_str(), info.doc.c_str());
    for (const auto& p : info.params) {
      out += util::format("      %-16s %-7s default=%-10s %s\n", p.key.c_str(), p.type.c_str(),
                          p.default_value.c_str(), p.doc.c_str());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generation

namespace {

void check_fit(const std::vector<sim::Job>& jobs, const sim::ClusterSpec& cluster,
               const std::string& producer) {
  for (const auto& job : jobs) {
    if (job.nodes < 1 || job.nodes > cluster.total_nodes ||
        job.memory_gb > cluster.total_memory_gb || job.duration <= 0.0) {
      throw ScenarioSpecError(
          producer + " broke the cluster-fit guarantee: job " + std::to_string(job.id) +
          util::format(" (%d nodes, %.1f GB, %.1f s)", job.nodes, job.memory_gb, job.duration) +
          util::format(" does not fit %d nodes / %.1f GB", cluster.total_nodes,
                       cluster.total_memory_gb));
    }
  }
}

std::vector<sim::Job> generate_mix(const ScenarioSpec& spec, std::size_t n, std::uint64_t seed,
                                   const GenerateOptions& options) {
  double total_weight = 0.0;
  for (const auto& component : spec.components) total_weight += component.weight;

  // Largest-remainder split of n across components, ties to earlier
  // components - deterministic in the written component order.
  std::vector<std::size_t> counts(spec.components.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < spec.components.size(); ++i) {
    const double exact =
        static_cast<double>(n) * spec.components[i].weight / total_weight;
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < n; ++k) {
    ++counts[remainders[k % remainders.size()].second];
    ++assigned;
  }

  struct Tagged {
    sim::Job job;
    std::size_t component;
  };
  std::vector<Tagged> merged;
  merged.reserve(n);
  for (std::size_t i = 0; i < spec.components.size(); ++i) {
    if (counts[i] == 0) continue;
    auto jobs = generate_scenario(spec.components[i].spec, counts[i],
                                  util::derive_seed(seed, "mix", i), options);
    for (auto& job : jobs) merged.push_back(Tagged{std::move(job), i});
  }

  // Interleave by arrival; ids are re-assigned 1..n in the merged order and
  // dependency edges are remapped per component (ids collide across
  // components before the remap).
  std::stable_sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.job.submit_time, a.component, a.job.id) <
           std::tie(b.job.submit_time, b.component, b.job.id);
  });
  std::vector<std::map<sim::JobId, sim::JobId>> id_map(spec.components.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    id_map[merged[i].component][merged[i].job.id] = static_cast<sim::JobId>(i + 1);
  }
  std::vector<sim::Job> out;
  out.reserve(merged.size());
  for (auto& tagged : merged) {
    sim::Job job = std::move(tagged.job);
    job.id = id_map[tagged.component].at(job.id);
    for (auto& dep : job.dependencies) dep = id_map[tagged.component].at(dep);
    out.push_back(std::move(job));
  }
  return out;
}

}  // namespace

sim::ClusterSpec effective_cluster(const ScenarioSpec& spec, sim::ClusterSpec base) {
  for (const auto& stage : spec.pipeline) {
    if (stage.name != "cluster") continue;
    const StageParamReader params(stage);
    const auto nodes = params.get_int("nodes", 0, 0, 1 << 24);
    const auto memory = params.get_double("memory_gb", 0.0, 0.0, 1e12);
    if (nodes > 0) base.total_nodes = static_cast<int>(nodes);
    if (memory > 0.0) base.total_memory_gb = memory;
  }
  return base;
}

std::vector<sim::Job> generate_scenario(const ScenarioSpec& spec, std::size_t n,
                                        std::uint64_t seed, const GenerateOptions& options_in) {
  const auto& registry = ScenarioRegistry::instance();
  registry.validate(spec);

  // Cluster overrides are hoisted: the whole pipeline (base generation
  // included) sees the overridden capacity, so a `polaris|cluster?nodes=560`
  // base is clamped to 560 nodes, not first mangled down to the default 256.
  GenerateOptions options = options_in;
  options.cluster = effective_cluster(spec, options.cluster);

  std::vector<sim::Job> jobs =
      spec.is_mix() ? generate_mix(spec, n, seed, options)
                    : registry.at(spec.base.name).generate(spec.base, n, seed, options);
  check_fit(jobs, options.cluster, "base '" + spec.base.name + "'");

  for (std::size_t i = 0; i < spec.pipeline.size(); ++i) {
    const auto& stage = spec.pipeline[i];
    // Each stage draws from its own derived stream, so inserting or
    // reordering one stage never perturbs another stage's randomness.
    util::Rng rng(util::derive_seed(seed, "xform:" + stage.name, i));
    registry.at_transform(stage.name).apply(jobs, stage, rng, options);
    check_fit(jobs, options.cluster, "transform '" + stage.name + "'");
  }
  return jobs;
}

std::string scenario_label(const ScenarioSpec& spec) {
  if (!spec.is_mix() && spec.pipeline.empty()) {
    // Mirror method_label: registry display label + canonical parameter
    // suffix. Unregistered names (workload_source axis labels) fall through
    // to the canonical string rather than throwing.
    const ScenarioInfo* info = ScenarioRegistry::instance().find(spec.base.name);
    if (info != nullptr) {
      return info->display_label + spec.to_string().substr(spec.base.name.size());
    }
  }
  return spec.to_string();
}

std::vector<ScenarioSpec> dedup_scenarios(const std::vector<ScenarioSpec>& scenarios) {
  std::vector<ScenarioSpec> unique;
  std::set<ScenarioSpec> seen;
  for (const auto& scenario : scenarios) {
    if (seen.insert(scenario).second) unique.push_back(scenario);
  }
  return unique;
}

}  // namespace reasched::workload
