#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "golden_digest_test_helper.hpp"
#include "spec_grammar_test_helper.hpp"
#include "workload/scenario_spec.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;
namespace ru = reasched::util;
using reasched::testing::expect_spec_error;

namespace {

template <typename Fn>
void expect_scenario_error(Fn&& fn, const std::vector<std::string>& fragments) {
  expect_spec_error<ru::SpecError>(std::forward<Fn>(fn), fragments);
}

void expect_identical_jobs(const std::vector<rs::Job>& a, const std::vector<rs::Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
    EXPECT_EQ(a[i].user, b[i].user) << "job " << i;
    EXPECT_EQ(a[i].group, b[i].group) << "job " << i;
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << "job " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "job " << i;
    EXPECT_EQ(a[i].walltime, b[i].walltime) << "job " << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "job " << i;
    EXPECT_EQ(a[i].memory_gb, b[i].memory_gb) << "job " << i;
    EXPECT_EQ(a[i].dependencies, b[i].dependencies) << "job " << i;
  }
}

std::string temp_path(const std::string& filename) {
  return (std::filesystem::temp_directory_path() / filename).string();
}

}  // namespace

TEST(ScenarioRegistry, ListingIsSortedCanonicalOrder) {
  // Mirror of the method-axis guarantee: --list-scenarios emits bases and
  // transforms in sorted canonical order, independent of registration order.
  auto& registry = rw::ScenarioRegistry::instance();
  const auto names = registry.names();
  const auto transforms = registry.transform_names();
  EXPECT_FALSE(names.empty());
  EXPECT_FALSE(transforms.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_TRUE(std::is_sorted(transforms.begin(), transforms.end()));
  // Every registered base appears in describe() before any transform, in
  // sorted order (the listing has a bases section then a transforms one).
  const std::string listing = registry.describe();
  std::size_t last = 0;
  for (const auto& name : names) {
    const std::size_t at = listing.find("  " + name);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GE(at, last) << name << " listed out of order";
    last = at;
  }
  for (const auto& name : transforms) {
    const std::size_t at = listing.find("  " + name, last);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GE(at, last) << name << " listed out of order";
    last = at;
  }
}

TEST(ScenarioSpec, SharedGrammarCases) {
  reasched::testing::SpecGrammarApi api;
  api.parse_ok = [](const std::string& s) { rw::ScenarioSpec::parse(s); };
  api.canonical = [](const std::string& s) { return rw::ScenarioSpec::parse(s).to_string(); };
  api.param_value = [](const std::string& s, const std::string& key) {
    return rw::ScenarioSpec::parse(s).base.params.at(key);
  };
  api.parse_fails = [](const std::string& s) {
    try {
      rw::ScenarioSpec::parse(s);
      return false;
    } catch (const ru::SpecError&) {
      return true;
    }
  };
  reasched::testing::run_shared_grammar_cases(api, "hetero_mix");
}

TEST(ScenarioSpec, ParsePipelineAndRoundTrip) {
  const auto spec =
      rw::ScenarioSpec::parse("hetero_mix?rate_scale=2&walltime_noise=1.0:3.0"
                              "|perturb?walltime_noise=1.5:2.0|dag?fanout=4&depth=3");
  EXPECT_EQ(spec.base.name, "hetero_mix");
  EXPECT_EQ(spec.base.params.at("rate_scale"), "2");
  ASSERT_EQ(spec.pipeline.size(), 2u);
  EXPECT_EQ(spec.pipeline[0].name, "perturb");
  EXPECT_EQ(spec.pipeline[1].name, "dag");
  EXPECT_EQ(spec.pipeline[1].params.at("fanout"), "4");
  // Canonical form sorts keys per stage and preserves stage order.
  EXPECT_EQ(spec.to_string(),
            "hetero_mix?rate_scale=2&walltime_noise=1.0:3.0"
            "|perturb?walltime_noise=1.5:2.0|dag?depth=3&fanout=4");
  EXPECT_EQ(rw::ScenarioSpec::parse(spec.to_string()), spec);
}

TEST(ScenarioSpec, ParseMixAndRoundTrip) {
  const auto spec = rw::ScenarioSpec::parse("mix(long_job:0.2,resource_sparse:0.8)");
  EXPECT_TRUE(spec.is_mix());
  ASSERT_EQ(spec.components.size(), 2u);
  EXPECT_EQ(spec.components[0].spec.base.name, "long_job");
  EXPECT_DOUBLE_EQ(spec.components[0].weight, 0.2);
  EXPECT_DOUBLE_EQ(spec.components[1].weight, 0.8);
  EXPECT_EQ(spec.to_string(), "mix(long_job:0.2,resource_sparse:0.8)");
  EXPECT_EQ(rw::ScenarioSpec::parse(spec.to_string()), spec);

  // Components are full specs: parameters (':' inside values travels
  // percent-encoded, since a raw one would be ambiguous with the weight
  // separator), even nested pipelines.
  const auto nested = rw::ScenarioSpec::parse(
      "mix(hetero_mix?walltime_noise=1.0%3a3.0:1,bursty_idle|stretch?load=2:3)|crop?horizon=1h");
  ASSERT_EQ(nested.components.size(), 2u);
  EXPECT_EQ(nested.components[0].spec.base.params.at("walltime_noise"), "1.0:3.0");
  EXPECT_DOUBLE_EQ(nested.components[0].weight, 1.0);
  ASSERT_EQ(nested.components[1].spec.pipeline.size(), 1u);
  EXPECT_EQ(nested.components[1].spec.pipeline[0].name, "stretch");
  EXPECT_DOUBLE_EQ(nested.components[1].weight, 3.0);
  ASSERT_EQ(nested.pipeline.size(), 1u);
  EXPECT_EQ(rw::ScenarioSpec::parse(nested.to_string()), nested);

  // Weights serialize in shortest round-trip form: full precision survives
  // the canonical string (the export's durable cell identity), and tidy
  // decimals stay tidy.
  const auto precise = rw::ScenarioSpec::parse(
      "mix(long_job:0.333333333333333,homog_short:0.666666666666667)");
  EXPECT_EQ(rw::ScenarioSpec::parse(precise.to_string()), precise);
  EXPECT_DOUBLE_EQ(rw::ScenarioSpec::parse(precise.to_string()).components[0].weight,
                   0.333333333333333);
}

TEST(ScenarioSpec, GrammarErrors) {
  expect_scenario_error([] { rw::ScenarioSpec::parse(""); }, {"empty"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("hetero_mix|"); },
                        {"empty pipeline stage"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("|stretch"); }, {"empty pipeline stage"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("hetero_mix||stretch"); },
                        {"empty pipeline stage"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix()"); }, {"mix()", "component"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix(long_job)"); },
                        {"long_job", "spec:weight"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix(long_job:zero)"); },
                        {"positive numeric weight", "zero"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix(long_job:-1)"); },
                        {"positive numeric weight"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix(long_job:inf)"); },
                        {"positive numeric weight", "inf"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix(long_job:1"); }, {"closing"});
  expect_scenario_error([] { rw::ScenarioSpec::parse("mix?a=1"); }, {"mix", "parenthesized"});
  // A raw ':' inside a component's parameter section is ambiguous with the
  // weight separator (a forgotten weight would silently truncate the value)
  // and must be percent-encoded.
  expect_scenario_error(
      [] { rw::ScenarioSpec::parse("mix(hetero_mix?walltime_noise=1.0:3.0:0.7,long_job:1)"); },
      {"raw ':'", "%3a"});
  // ... and the canonical serializer writes exactly that encoding.
  rw::ScenarioSpec ambiguous;
  ambiguous.base.name = "mix";
  rw::ScenarioSpec inner("hetero_mix?walltime_noise=1.0%3a3.0");
  ambiguous.components.push_back(rw::MixComponent{inner, 0.7});
  EXPECT_EQ(ambiguous.to_string(), "mix(hetero_mix?walltime_noise=1.0%3a3.0:0.7)");
  EXPECT_EQ(rw::ScenarioSpec::parse(ambiguous.to_string()), ambiguous);
}

TEST(ScenarioSpec, MixWeightOverflowIsASpecError) {
  // Each weight is finite, but their sum, or n * weight, can overflow to
  // inf; a NaN or infinite share must not reach the count cast.
  expect_scenario_error(
      [] { rw::generate_scenario("mix(homog_short:1e308,long_job:1e308)", 8, 1); },
      {"mix(homog_short:1e+308,long_job:1e+308)", "total weight is not finite"});
  expect_scenario_error([] { rw::generate_scenario("mix(homog_short:1e308)", 8, 1); },
                        {"mix(homog_short:1e+308)", "share is not finite"});
  // Large but representable weights split as their ratio says.
  const auto jobs = rw::generate_scenario("mix(homog_short:1e306,long_job:3e306)", 8, 1);
  EXPECT_EQ(jobs.size(), 8u);
}

// The paper panel in presentation order, with the display labels the
// pre-registry Scenario enum printed. The labels key every cell_seed, so
// they are the seed contract.
const std::pair<const char*, const char*> kPaperPanel[] = {
    {"homog_short", "Homogeneous Short"}, {"hetero_mix", "Heterogeneous Mix"},
    {"long_job", "Long-Job Dominant"},    {"high_parallel", "High Parallelism"},
    {"resource_sparse", "Resource Sparse"}, {"bursty_idle", "Bursty + Idle"},
    {"adversarial", "Adversarial"}};

// Canonical specs label as the legacy enum display names.
TEST(ScenarioSpec, EnumShimMatchesLegacyLabels) {
  for (const auto& [name, label] : kPaperPanel) {
    const rw::ScenarioSpec spec(name);
    EXPECT_EQ(rw::scenario_label(spec), label);
    EXPECT_EQ(rw::ScenarioSpec::parse(spec.to_string()), spec);
  }
  EXPECT_EQ(rw::ScenarioSpec("bursty_idle").to_string(), "bursty_idle");
  EXPECT_EQ(rw::ScenarioSpec("hetero_mix").to_string(), "hetero_mix");
  // Parameterized/piped/mix specs label as themselves.
  EXPECT_EQ(rw::scenario_label(rw::ScenarioSpec("bursty_idle?rate_scale=2")),
            "Bursty + Idle?rate_scale=2");
  EXPECT_EQ(rw::scenario_label(rw::ScenarioSpec("bursty_idle|stretch?load=2")),
            "bursty_idle|stretch?load=2");
  // Unregistered names degrade to the canonical string (workload_source
  // axis labels), not an exception.
  EXPECT_EQ(rw::scenario_label(rw::ScenarioSpec("my_custom_replay")), "my_custom_replay");
}

TEST(ScenarioRegistry, ListsBuiltinsAndRejectsUnknowns) {
  const auto names = rw::ScenarioRegistry::instance().names();
  for (const char* expected : {"homog_short", "hetero_mix", "long_job", "high_parallel",
                               "resource_sparse", "bursty_idle", "adversarial", "swf", "trace",
                               "polaris"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "registry should list " << expected;
  }
  const auto transforms = rw::ScenarioRegistry::instance().transform_names();
  for (const char* expected : {"perturb", "stretch", "dag", "crop", "cluster"}) {
    EXPECT_NE(std::find(transforms.begin(), transforms.end(), expected), transforms.end())
        << "registry should list transform " << expected;
  }
  const std::string listing = rw::ScenarioRegistry::instance().describe();
  for (const char* fragment : {"hetero_mix", "walltime_noise", "mix(spec:weight", "dag",
                               "fanout", "cluster"}) {
    EXPECT_NE(listing.find(fragment), std::string::npos)
        << "--list-scenarios output should mention " << fragment;
  }

  expect_scenario_error([] { rw::generate_scenario(rw::ScenarioSpec("nosuch"), 4, 1); },
                        {"unknown scenario 'nosuch'", "registered scenarios", "hetero_mix"});
  expect_scenario_error(
      [] { rw::generate_scenario(rw::ScenarioSpec("hetero_mix|nosuch"), 4, 1); },
      {"unknown transform 'nosuch'", "registered transforms", "perturb"});
  expect_scenario_error(
      [] { rw::generate_scenario(rw::ScenarioSpec("hetero_mix?bogus=1"), 4, 1); },
      {"hetero_mix", "does not accept parameter 'bogus'", "walltime_noise"});
  expect_scenario_error(
      [] { rw::generate_scenario(rw::ScenarioSpec("hetero_mix|dag?bogus=1"), 4, 1); },
      {"dag", "does not accept parameter 'bogus'", "fanout"});
  expect_scenario_error(
      [] { rw::generate_scenario(rw::ScenarioSpec("hetero_mix?rate_scale=soon"), 4, 1); },
      {"rate_scale", "number", "soon"});
  expect_scenario_error(
      [] { rw::generate_scenario(rw::ScenarioSpec("hetero_mix?walltime_noise=3.0:1.0"), 4, 1); },
      {"walltime_noise", "MIN:MAX"});
  // Non-finite numbers are ill-typed values too: NaN passes every range
  // comparison, so without a finiteness check it reached the engine as a
  // malformed submit time (or, for crop, an unbounded window).
  const std::pair<const char*, std::vector<std::string>> non_finite[] = {
      {"hetero_mix?rate_scale=nan", {"hetero_mix", "rate_scale", "nan"}},
      {"hetero_mix|stretch?load=nan", {"stretch", "load", "nan"}},
      {"hetero_mix|stretch?shift=nan", {"stretch", "shift", "nan"}},
      {"hetero_mix?walltime_noise=nan:nan", {"hetero_mix", "walltime_noise", "nan:nan"}},
      {"hetero_mix|crop?horizon=inf", {"crop", "horizon", "inf"}},
  };
  for (const auto& [spec, fragments] : non_finite) {
    SCOPED_TRACE(spec);
    expect_scenario_error([spec = spec] { rw::generate_scenario(rw::ScenarioSpec(spec), 4, 1); },
                          fragments);
  }
}

TEST(ScenarioRegistry, FrozenAfterFirstLookup) {
  auto& registry = rw::ScenarioRegistry::instance();
  (void)registry.names();
  EXPECT_TRUE(registry.frozen());
  rw::ScenarioInfo late;
  late.name = "late_scenario";
  late.generate = [](const ru::SpecStage&, std::size_t, std::uint64_t,
                     const rw::GenerateOptions&) { return std::vector<rs::Job>{}; };
  EXPECT_THROW(registry.add(std::move(late)), std::logic_error);
  rw::TransformInfo late_transform;
  late_transform.name = "late_transform";
  late_transform.apply = [](std::vector<rs::Job>&, const ru::SpecStage&, reasched::util::Rng&,
                            rw::GenerateOptions&) {};
  EXPECT_THROW(registry.add_transform(std::move(late_transform)), std::logic_error);
}

TEST(GenerateScenario, CanonicalSpecMatchesLegacyGenerator) {
  // Digests of the pre-registry generator classes' output,
  // generate(24, 77), captured before they were folded into the registry.
  const std::pair<const char*, std::uint64_t> legacy[] = {
      {"homog_short", 0x1286792f3bc0992fULL},
      {"hetero_mix", 0x29111ab1e89dd54dULL},
      {"long_job", 0x24d68c03bf16a4d1ULL},
      {"high_parallel", 0x7ff9404376752ba4ULL},
      {"resource_sparse", 0x59b9cd62ae4ac39cULL},
      {"bursty_idle", 0x58122a39531d4444ULL},
      {"adversarial", 0x468bfd2e437cc7fcULL}};
  for (const auto& [spec, digest] : legacy) {
    EXPECT_EQ(reasched::testing::jobs_digest(rw::generate_scenario(spec, 24, 77)), digest)
        << spec;
  }
}

TEST(GenerateScenario, WalltimeNoiseParamMatchesLegacyOptionsPath) {
  // The spec parameter is byte-for-byte the GenerateOptions noise knob the
  // estimate-noise ablation used before the port.
  rw::GenerateOptions options;
  options.walltime_factor_min = 1.0;
  options.walltime_factor_max = 3.0;
  const auto legacy = rw::generate_scenario("hetero_mix", 60, 8088, options);
  const auto via_spec = rw::generate_scenario("hetero_mix?walltime_noise=1.0:3.0", 60, 8088);
  expect_identical_jobs(legacy, via_spec);
}

TEST(GenerateScenario, BaseParamsComposeWithoutDisturbingBaseDraws) {
  const auto base = rw::generate_scenario("hetero_mix", 30, 5);
  const auto noisy = rw::generate_scenario("hetero_mix?walltime_noise=2.0:4.0", 30, 5);
  const auto faster = rw::generate_scenario("hetero_mix?rate_scale=2", 30, 5);
  ASSERT_EQ(noisy.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    // Paired: resources, durations, users, arrivals identical; only the
    // estimate changes, and only upward within the factor range.
    EXPECT_EQ(noisy[i].duration, base[i].duration);
    EXPECT_EQ(noisy[i].submit_time, base[i].submit_time);
    EXPECT_EQ(noisy[i].nodes, base[i].nodes);
    EXPECT_GE(noisy[i].walltime, 2.0 * noisy[i].duration - 1e-9);
    EXPECT_LE(noisy[i].walltime, 4.0 * noisy[i].duration + 1e-9);
    // rate_scale halves interarrivals, everything else untouched.
    EXPECT_EQ(faster[i].duration, base[i].duration);
    EXPECT_DOUBLE_EQ(faster[i].submit_time, base[i].submit_time / 2.0);
  }
}

TEST(GenerateScenario, TransformsAreDeterministicAndRoundTripStable) {
  const rw::ScenarioSpec spec(
      "bursty_idle?rate_scale=1.5|perturb?walltime_noise=1.2:2.5|dag?fanout=3&depth=3"
      "|stretch?load=1.5&shift=10m");
  const auto a = rw::generate_scenario(spec, 40, 99);
  const auto b = rw::generate_scenario(spec, 40, 99);
  expect_identical_jobs(a, b);
  // Deterministic identical output for the spec re-parsed from canonical.
  const auto c = rw::generate_scenario(rw::ScenarioSpec::parse(spec.to_string()), 40, 99);
  expect_identical_jobs(a, c);

  // The pipeline actually did something: estimates inflated, deps injected,
  // arrivals rescaled and shifted (first arrival moved by shift).
  bool any_dep = false;
  for (const auto& job : a) {
    EXPECT_GE(job.walltime, job.duration * 1.2 - 1e-9);
    any_dep = any_dep || !job.dependencies.empty();
  }
  EXPECT_TRUE(any_dep);
  EXPECT_GE(a.front().submit_time, 600.0 - 1e-9);
}

TEST(GenerateScenario, DagInjectsAcyclicDependenciesOnEarlierArrivals) {
  const auto jobs = rw::generate_scenario("hetero_mix|dag?fanout=4&depth=4", 60, 31);
  std::map<rs::JobId, double> submit;
  for (const auto& job : jobs) submit[job.id] = job.submit_time;
  std::size_t with_deps = 0;
  for (const auto& job : jobs) {
    for (const auto dep : job.dependencies) {
      ASSERT_TRUE(submit.count(dep) != 0);
      EXPECT_LE(submit[dep], job.submit_time) << "dependency must arrive no later";
      EXPECT_NE(dep, job.id);
    }
    if (!job.dependencies.empty()) ++with_deps;
  }
  // Three of four layers get dependencies at prob=1.
  EXPECT_GE(with_deps, 40u);
}

TEST(GenerateScenario, MixSplitsByWeightAndInterleavesArrivals) {
  const auto jobs = rw::generate_scenario("mix(long_job:0.25,resource_sparse:0.75)", 40, 7);
  ASSERT_EQ(jobs.size(), 40u);
  // Ids renumbered 1..n in arrival order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<rs::JobId>(i + 1));
    if (i > 0) {
      EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
    }
  }
  // Roughly 10 long-job-dominant jobs: count the scenario's signature
  // extremely-long jobs' component (50000s runtimes exist only there).
  const auto long_component =
      std::count_if(jobs.begin(), jobs.end(), [](const rs::Job& j) { return j.nodes > 8; });
  EXPECT_GT(long_component, 0);
  // Weight written differently is a different axis key but the same split.
  const auto rescaled = rw::generate_scenario("mix(long_job:1,resource_sparse:3)", 40, 7);
  expect_identical_jobs(jobs, rescaled);
}

TEST(GenerateScenario, MixDependenciesRemapConsistently) {
  const auto jobs =
      rw::generate_scenario("mix(hetero_mix|dag?fanout=2&depth=2:1,homog_short:1)", 30, 13);
  ASSERT_EQ(jobs.size(), 30u);
  std::set<rs::JobId> ids;
  for (const auto& job : jobs) ids.insert(job.id);
  EXPECT_EQ(ids.size(), jobs.size());
  bool any_dep = false;
  for (const auto& job : jobs) {
    for (const auto dep : job.dependencies) {
      EXPECT_TRUE(ids.count(dep) != 0) << "dependency must survive the mix renumbering";
      any_dep = true;
    }
  }
  EXPECT_TRUE(any_dep);
}

TEST(GenerateScenario, CropKeepsWindowAndRenumbers) {
  const auto all = rw::generate_scenario("resource_sparse", 50, 21);
  const auto cropped = rw::generate_scenario("resource_sparse|crop?offset=2m&horizon=10m", 50, 21);
  EXPECT_LT(cropped.size(), all.size());
  EXPECT_FALSE(cropped.empty());
  for (std::size_t i = 0; i < cropped.size(); ++i) {
    EXPECT_EQ(cropped[i].id, static_cast<rs::JobId>(i + 1));
    EXPECT_GE(cropped[i].submit_time, 0.0);
    EXPECT_LT(cropped[i].submit_time, 600.0);
  }
}

TEST(GenerateScenario, ClusterOverrideIsHoistedAndClamps) {
  const rw::ScenarioSpec spec("high_parallel|cluster?nodes=32&memory_gb=256");
  EXPECT_EQ(rw::effective_cluster(spec, rs::ClusterSpec::paper_default()).total_nodes, 32);
  const auto jobs = rw::generate_scenario(spec, 20, 3);
  for (const auto& job : jobs) {
    EXPECT_LE(job.nodes, 32);
    EXPECT_LE(job.memory_gb, 256.0);
  }
  // No override: the spec inherits the configured cluster untouched.
  EXPECT_EQ(rw::effective_cluster(rw::ScenarioSpec("hetero_mix"),
                                  rs::ClusterSpec::paper_default())
                .total_nodes,
            rs::ClusterSpec::paper_default().total_nodes);
}

TEST(GenerateScenario, SwfAndTraceBasesReplayFiles) {
  const auto source = rw::generate_scenario("hetero_mix", 25, 17);
  const std::string swf_path = temp_path("reasched_scenario_spec_test.swf");
  rw::save_swf(source, swf_path);
  const std::string csv_path = temp_path("reasched_scenario_spec_test.csv");
  rw::save_jobs(source, csv_path);

  const auto via_swf =
      rw::generate_scenario(rw::ScenarioSpec("swf?path=" + swf_path), 25, 1);
  ASSERT_EQ(via_swf.size(), 25u);
  const auto via_csv =
      rw::generate_scenario(rw::ScenarioSpec("trace?path=" + csv_path), 25, 1);
  // The replay is exactly the CSV round-trip of the source (CSV serializes
  // doubles at fixed precision, so compare against the round-trip, not the
  // in-memory source).
  expect_identical_jobs(via_csv, rw::jobs_from_csv(rw::jobs_to_csv(source)));

  // The n_jobs axis caps trace replays; max_jobs overrides it.
  EXPECT_EQ(rw::generate_scenario(rw::ScenarioSpec("trace?path=" + csv_path), 10, 1).size(),
            10u);
  EXPECT_EQ(rw::generate_scenario(rw::ScenarioSpec("trace?path=" + csv_path + "&max_jobs=5"),
                                  25, 1)
                .size(),
            5u);
  expect_scenario_error([] { rw::generate_scenario(rw::ScenarioSpec("swf"), 5, 1); },
                        {"swf", "path", "missing"});

  std::remove(swf_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(GenerateScenario, PolarisBaseClampsToCluster) {
  const auto jobs = rw::generate_scenario("polaris", 40, 5);
  ASSERT_EQ(jobs.size(), 40u);
  for (const auto& job : jobs) {
    EXPECT_LE(job.nodes, rs::ClusterSpec::paper_default().total_nodes);
    EXPECT_LE(job.memory_gb, rs::ClusterSpec::paper_default().total_memory_gb);
  }
  // With the Polaris cluster override, the replay runs unclamped at width.
  const auto wide = rw::generate_scenario("polaris|cluster?nodes=560&memory_gb=286720", 40, 5);
  const auto max_nodes = std::max_element(wide.begin(), wide.end(),
                                          [](const rs::Job& a, const rs::Job& b) {
                                            return a.nodes < b.nodes;
                                          })
                             ->nodes;
  EXPECT_GE(max_nodes, rs::ClusterSpec::paper_default().total_nodes / 2);
}

TEST(GenerateScenario, FitGuaranteeViolationNamesTheStage) {
  // A cluster shrink *after* generation-time hoisting cannot break the fit
  // guarantee (the override applies up front); verify the check itself by
  // registering nothing and instead probing the public contract: every
  // generated job fits the effective cluster.
  const rw::ScenarioSpec spec("long_job|cluster?nodes=8&memory_gb=64");
  const auto cluster = rw::effective_cluster(spec, rs::ClusterSpec::paper_default());
  for (const auto& job : rw::generate_scenario(spec, 30, 9)) {
    EXPECT_LE(job.nodes, cluster.total_nodes);
    EXPECT_LE(job.memory_gb, cluster.total_memory_gb);
  }
}

TEST(ScenarioSpec, DedupPreservesFirstSeenOrder) {
  const std::vector<rw::ScenarioSpec> specs = {
      "hetero_mix", "hetero_mix", "bursty_idle",
      "hetero_mix?rate_scale=2", "bursty_idle"};
  const auto unique = ru::dedup(specs);
  ASSERT_EQ(unique.size(), 3u);
  EXPECT_EQ(unique[0].to_string(), "hetero_mix");
  EXPECT_EQ(unique[1].to_string(), "bursty_idle");
  EXPECT_EQ(unique[2].to_string(), "hetero_mix?rate_scale=2");
}

// paper_scenario_specs() is the legacy enum panel, in the same order.
TEST(ScenarioSpec, PaperScenarioSpecsMatchEnumPanel) {
  const auto& specs = rw::paper_scenario_specs();
  ASSERT_EQ(specs.size(), std::size(kPaperPanel));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i], rw::ScenarioSpec(kPaperPanel[i].first));
    EXPECT_EQ(specs[i].to_string(), kPaperPanel[i].first);
  }
}
