#include "workload/scenario_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
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

/// `s` with every paren-depth-0 ':' inside a parameter section (after a
/// depth-0 '?') percent-encoded. Inside mix(...) such a colon is
/// indistinguishable from the spec:weight separator, so the serializer
/// writes it encoded and the parser rejects the raw form (any spec this
/// function changes) instead of silently mis-splitting.
std::string encode_param_colons(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  int depth = 0;
  bool in_params = false;
  for (const char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && c == '?') in_params = true;
    if (depth == 0 && c == ':' && in_params) {
      out += "%3a";
    } else {
      out += c;
    }
  }
  return out;
}

template <typename T>
int three_way(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

/// Three-way value comparison used by both operator< and operator==:
/// base, then the mix components (count first), then the pipeline.
int compare(const ScenarioSpec& a, const ScenarioSpec& b) {
  if (const int c = three_way(a.base, b.base); c != 0) return c;
  if (const int c = three_way(a.components.size(), b.components.size()); c != 0) return c;
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    if (const int c = compare(a.components[i].spec, b.components[i].spec); c != 0) return c;
    if (const int c = three_way(a.components[i].weight, b.components[i].weight); c != 0) {
      return c;
    }
  }
  if (const int c = three_way(a.pipeline.size(), b.pipeline.size()); c != 0) return c;
  return three_way(a.pipeline, b.pipeline);
}

}  // namespace

ScenarioSpec::ScenarioSpec(const std::string& spec) : ScenarioSpec(parse(spec)) {}

ScenarioSpec::ScenarioSpec(const char* spec) : ScenarioSpec(parse(spec)) {}

ScenarioSpec ScenarioSpec::parse(std::string_view spec_in) {
  const std::string s = util::trim(spec_in);
  if (s.empty()) throw util::SpecError("scenario spec is empty");

  ScenarioSpec out;
  const auto stages = util::split_outside_parens(s, '|');
  for (const auto& stage : stages) {
    if (util::trim(stage).empty()) {
      throw util::SpecError("scenario spec '" + s +
                            "' has an empty pipeline stage (stray or trailing '|')");
    }
  }

  const std::string base_tok = util::trim(stages.front());
  if (base_tok.rfind("mix(", 0) == 0) {
    if (base_tok.back() != ')') {
      throw util::SpecError("mix base '" + base_tok + "' is missing its closing ')'");
    }
    out.base.name = "mix";
    const std::string inner = base_tok.substr(4, base_tok.size() - 5);
    if (util::trim(inner).empty()) {
      throw util::SpecError("mix() in spec '" + s + "' needs at least one spec:weight component");
    }
    for (const auto& comp_tok : util::split_outside_parens(inner, ',')) {
      // The weight separator is the *last* top-level ':'. A raw ':' inside
      // a component's parameter section would be indistinguishable from it
      // (`a?noise=1.0:3.0` = noise "1.0" with weight 3, or noise "1.0:3.0"
      // with the weight forgotten?), so the grammar requires it encoded -
      // `a?noise=1.0%3a3.0:0.7` - and rejects the ambiguous raw form.
      const auto parts = util::split_outside_parens(comp_tok, ':');
      if (parts.size() < 2 || util::trim(parts.back()).empty()) {
        throw util::SpecError("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                              "' is not of the form spec:weight");
      }
      std::string spec_str = parts[0];
      for (std::size_t i = 1; i + 1 < parts.size(); ++i) spec_str += ":" + parts[i];
      if (encode_param_colons(spec_str) != spec_str) {
        throw util::SpecError("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                              "' has a raw ':' inside a parameter section, which is ambiguous "
                              "with the spec:weight separator; percent-encode it as %3a "
                              "(e.g. walltime_noise=1.0%3a3.0)");
      }
      const auto weight = util::parse_double(util::trim(parts.back()));
      if (!weight || !std::isfinite(*weight) || !(*weight > 0.0)) {
        throw util::SpecError("mix component '" + util::trim(comp_tok) + "' in spec '" + s +
                              "' needs a finite positive numeric weight, got '" +
                              util::trim(parts.back()) + "'");
      }
      out.components.push_back(MixComponent{parse(spec_str), *weight});
    }
  } else {
    out.base = util::parse_spec_stage(base_tok, "scenario");
    if (out.base.name == "mix") {
      throw util::SpecError("scenario 'mix' takes parenthesized components: mix(spec:weight,...)");
    }
  }

  for (std::size_t i = 1; i < stages.size(); ++i) {
    out.pipeline.push_back(util::parse_spec_stage(stages[i], "transform"));
  }
  return out;
}

std::string ScenarioSpec::to_string() const {
  std::string out;
  if (is_mix()) {
    out = "mix(";
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (i > 0) out += ',';
      out += encode_param_colons(components[i].spec.to_string()) + ":" +
             format_weight(components[i].weight);
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

void ScenarioRegistry::add(ScenarioInfo info) {
  if (info.name == "mix") {
    throw std::logic_error("ScenarioRegistry: 'mix' is reserved spec grammar");
  }
  scenarios_.add(std::move(info));
}

void ScenarioRegistry::validate(const ScenarioSpec& spec) const {
  if (spec.is_mix()) {
    for (const auto& component : spec.components) validate(component.spec);
  } else {
    scenarios_.resolve(spec.base);
  }
  for (const auto& stage : spec.pipeline) {
    transforms_.resolve(stage);
  }
}

std::string ScenarioRegistry::describe() const {
  std::string out = "Base scenarios (spec grammar: base[?key=value&...][|transform...]):\n";
  for (const auto& [name, info] : scenarios_.entries()) {
    out += util::format("  %-16s %-18s %s\n", name.c_str(), info.display_label.c_str(),
                        info.doc.c_str());
    for (const auto& p : info.params) {
      out += util::format("      %-16s %-7s default=%-10s %s\n", p.key.c_str(), p.type.c_str(),
                          p.default_value.c_str(), p.doc.c_str());
    }
  }
  out += "  mix(spec:weight,...)                  weighted combination of any specs\n";
  out += "\nTransforms (append with '|', applied left to right):\n";
  for (const auto& [name, info] : transforms_.entries()) {
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
      throw util::SpecError(
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
  // Each weight is finite, but a sum or an n * weight product can still
  // overflow to inf (then NaN), and casting either to a count is undefined.
  const auto overflow = [&spec](const char* what) {
    return util::SpecError(spec.to_string() + ": mix " + what + " is not finite");
  };
  if (!std::isfinite(total_weight)) throw overflow("total weight");

  // Largest-remainder split of n across components, ties to earlier
  // components - deterministic in the written component order.
  std::vector<std::size_t> counts(spec.components.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < spec.components.size(); ++i) {
    const double exact =
        static_cast<double>(n) * spec.components[i].weight / total_weight;
    if (!std::isfinite(exact)) throw overflow("share");
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
    const util::SpecParamReader params(stage);
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
    // suffix. Unregistered names fall through to the canonical string
    // rather than throwing; generation is what refuses them.
    const ScenarioInfo* info = ScenarioRegistry::instance().find(spec.base.name);
    if (info != nullptr) {
      return info->display_label + spec.to_string().substr(spec.base.name.size());
    }
  }
  return spec.to_string();
}

}  // namespace reasched::workload
