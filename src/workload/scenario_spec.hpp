#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "util/rng.hpp"
#include "util/spec_registry.hpp"

namespace reasched::workload {

/// How submit times are assigned (Section 3.1 vs Section 3.3).
enum class ArrivalMode {
  kPoisson,  ///< dynamic arrivals, scenario-specific rate (scenario studies)
  kStatic,   ///< all jobs at t=0 (the static formulation in 3.3)
};

/// Generation context shared by every scenario.
struct GenerateOptions {
  ArrivalMode arrival_mode = ArrivalMode::kPoisson;
  sim::ClusterSpec cluster = sim::ClusterSpec::paper_default();
  /// Walltime-estimate noise: users over-request walltime by a factor drawn
  /// uniformly from [min, max] of the true runtime. 1.0/1.0 keeps estimates
  /// exact (the paper's setup); >1 models the estimate unreliability that
  /// runtime-prediction literature (cited in the paper's related work)
  /// studies - it degrades walltime-driven schedulers (SJF, EASY).
  double walltime_factor_min = 1.0;
  double walltime_factor_max = 1.0;
};

struct MixComponent;

/// The scenario axis as data - the mirror image of `harness::MethodSpec`.
/// A spec is a base workload source followed by an optional pipeline of
/// composable transforms, round-trippable through a compact string:
///
///   spec      := base ( '|' transform )*
///   base      := stage | 'mix(' spec ':' weight ( ',' spec ':' weight )* ')'
///   transform := stage            (stage grammar: util/spec_grammar.hpp)
///
/// e.g. `bursty_idle`, `hetero_mix?walltime_noise=1.0:3.0&rate_scale=2.0`,
/// `swf?path=trace.swf&horizon=30d`, `mix(long_job:0.2,resource_sparse:0.8)`,
/// `adversarial|perturb?walltime_noise=1.5:3.0|dag?fanout=4&depth=3`.
/// Inside `mix(...)` a `:` in a parameter value must additionally be
/// percent-encoded (`walltime_noise=1.0%3a3.0:0.7`) - a raw one is
/// rejected as ambiguous with the weight separator, and the canonical
/// serializer always writes the encoded form. (A component whose *final*
/// raw-colon value doubles as a plausible weight - `a?load=2:3` - parses
/// as load=2 with weight 3; when in doubt, encode.) Parameters are typed and
/// validated when the registry generates the workload, not at parse time.
/// Ordering and equality are value semantics, so a ScenarioSpec is a
/// grid-axis key.
struct ScenarioSpec {
  /// Base workload source. `base.name == "mix"` means the base is the
  /// weighted combination in `components` instead of a registered generator.
  util::SpecStage base;
  std::vector<MixComponent> components;
  /// Transform stages applied left to right after the base.
  std::vector<util::SpecStage> pipeline;

  ScenarioSpec() = default;
  /// Parsing constructors so spec literals drop in wherever a scenario is
  /// expected (`config.scenarios = {"bursty_idle", "mix(long_job:0.2,...)"}`).
  /// Throw util::SpecError on grammar violations.
  ScenarioSpec(const std::string& spec);  // NOLINT(google-explicit-constructor)
  ScenarioSpec(const char* spec);         // NOLINT(google-explicit-constructor)

  static ScenarioSpec parse(std::string_view spec);

  /// Canonical compact form; parse(to_string()) == *this for every valid
  /// spec, and generation from the re-parsed spec is bit-identical.
  std::string to_string() const;

  bool is_mix() const { return base.name == "mix"; }

  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
  friend bool operator<(const ScenarioSpec& a, const ScenarioSpec& b);
};

/// One weighted component of a `mix(...)` base. Weights are relative; the
/// registry normalizes them and splits the requested job count by largest
/// remainder, so `mix(a:1,b:1)` and `mix(a:0.5,b:0.5)` are the same split
/// (but distinct axis keys - canonicalization preserves the written form).
struct MixComponent {
  ScenarioSpec spec;
  double weight = 1.0;
};

/// One registered base workload source: canonical name, display label
/// (for the seven paper scenarios the pre-registry names, which key every
/// derived seed), declared parameters and the generator turning (stage, n,
/// seed, options) into jobs.
struct ScenarioInfo {
  std::string name;           ///< canonical registry key, e.g. "hetero_mix"
  std::string display_label;  ///< presentation label, e.g. "Heterogeneous Mix"
  std::string doc;            ///< one-line description for --list-scenarios
  std::vector<util::SpecParamInfo> params;
  std::function<std::vector<sim::Job>(const util::SpecStage&, std::size_t n, std::uint64_t seed,
                                      const GenerateOptions&)>
      generate;
};

/// One registered transform operator. `apply` mutates the job vector in
/// place; `rng` is an independent deterministic stream derived from the
/// generation seed and the stage's pipeline position, and `options` is the
/// effective generation context (its cluster reflects `cluster?...`
/// overrides). Every transform must preserve the cluster-fit guarantee -
/// generate_scenario() re-checks it after each stage and throws naming the
/// offending stage.
struct TransformInfo {
  std::string name;
  std::string doc;
  std::vector<util::SpecParamInfo> params;
  std::function<void(std::vector<sim::Job>&, const util::SpecStage&, util::Rng&,
                     GenerateOptions&)>
      apply;
};

/// String-keyed registry of base scenarios and transform operators. The
/// built-ins self-register on first use of `instance()`
/// (workload::register_scenarios); extensions may `add()` more at startup.
/// Both tables sit behind one freeze-at-first-lookup flag
/// (util::SpecFreeze): a late `add()` or `add_transform()` (after any
/// find/at/names/validate/describe/generate) throws std::logic_error.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Register a base scenario / transform; throws std::logic_error on
  /// duplicate, empty or reserved (`mix`) names, missing callbacks, or
  /// registration once the registry is frozen.
  void add(ScenarioInfo info);
  void add_transform(TransformInfo info) { transforms_.add(std::move(info)); }

  const ScenarioInfo* find(const std::string& name) const { return scenarios_.find(name); }
  const ScenarioInfo& at(const std::string& name) const { return scenarios_.at(name); }
  const TransformInfo& at_transform(const std::string& name) const {
    return transforms_.at(name);
  }
  std::vector<std::string> names() const { return scenarios_.names(); }
  std::vector<std::string> transform_names() const { return transforms_.names(); }

  /// Validate names and declared parameter keys across the whole spec
  /// (base, mix components recursively, every pipeline stage) without
  /// generating - CLI fail-fast before any cell runs.
  void validate(const ScenarioSpec& spec) const;

  /// Human-readable listing of scenarios and transforms with parameters and
  /// defaults (`compare_schedulers --list-scenarios`).
  std::string describe() const;

  bool frozen() const { return freeze_.frozen(); }

 private:
  util::SpecFreeze freeze_;
  util::SpecTable<ScenarioInfo, &ScenarioInfo::generate> scenarios_{freeze_, "ScenarioRegistry",
                                                                    "scenario"};
  util::SpecTable<TransformInfo, &TransformInfo::apply> transforms_{freeze_, "ScenarioRegistry",
                                                                   "transform"};
};

/// Generate the workload a spec describes: resolve the base (recursively
/// for `mix`), then run the transform pipeline. Deterministic: identical
/// (spec, n, seed, options) always yields identical jobs, and a spec
/// re-parsed from its canonical to_string() generates bit-identically.
/// The cluster-fit guarantee (every job fits `effective_cluster(spec,
/// options.cluster)`) is asserted after the base and after every transform.
std::vector<sim::Job> generate_scenario(const ScenarioSpec& spec, std::size_t n,
                                        std::uint64_t seed,
                                        const GenerateOptions& options = {});

/// The cluster a spec's cell actually runs on: `base` with every top-level
/// `cluster?...` override applied in pipeline order. The sweep layer gives
/// this cluster to both the generator and the engine, so generation-side
/// clamping and engine-side capacity always agree. Overrides inside mix
/// components affect only that component's generation, never the engine.
sim::ClusterSpec effective_cluster(const ScenarioSpec& spec, sim::ClusterSpec base);

/// Presentation label: the registry display label plus the parameter/
/// pipeline suffix for a plain registered base (`Heterogeneous Mix`,
/// `Bursty + Idle?rate_scale=2`); the canonical spec string for everything
/// else (mix, pipelines, unregistered labels). The seven canonical specs
/// label as the pre-registry names, which keeps `cell_jobs`/`cell_seed`
/// derivations - and therefore all recorded results - bit-identical.
std::string scenario_label(const ScenarioSpec& spec);

/// The seven paper scenarios as their canonical specs, presentation order.
const std::vector<ScenarioSpec>& paper_scenario_specs();

/// The paper's queue-size sweep [10, 20, 40, 60, 80, 100] (Section 3.1).
const std::vector<std::size_t>& paper_job_counts();

}  // namespace reasched::workload
