#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "harness/method_spec.hpp"
#include "harness/sweep.hpp"
#include "spec_grammar_test_helper.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rs = reasched::sim;
namespace ru = reasched::util;

namespace {

/// Message-content helper: the error must mention every given fragment.
template <typename Fn>
void expect_spec_error(Fn&& fn, const std::vector<std::string>& fragments) {
  reasched::testing::expect_spec_error<ru::SpecError>(std::forward<Fn>(fn), fragments);
}

}  // namespace

TEST(MethodSpec, SharedGrammarCases) {
  // The grammar edge cases every spec axis must satisfy identically
  // (percent-encoding, duplicate keys, canonicalization) - the scenario
  // axis runs the same helper in test_workload_scenario_spec.cpp.
  reasched::testing::SpecGrammarApi api;
  api.parse_ok = [](const std::string& s) { rh::MethodSpec::parse(s); };
  api.canonical = [](const std::string& s) { return rh::MethodSpec::parse(s).to_string(); };
  api.param_value = [](const std::string& s, const std::string& key) {
    return rh::MethodSpec::parse(s).params.at(key);
  };
  api.parse_fails = [](const std::string& s) {
    try {
      rh::MethodSpec::parse(s);
      return false;
    } catch (const ru::SpecError&) {
      return true;
    }
  };
  reasched::testing::run_shared_grammar_cases(api, "fcfs");
}

TEST(MethodSpec, ParseBareName) {
  const auto spec = rh::MethodSpec::parse("fcfs");
  EXPECT_EQ(spec.name, "fcfs");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "fcfs");
}

TEST(MethodSpec, ParseParamsAndRoundTrip) {
  const auto spec = rh::MethodSpec::parse("opt:portfolio?window=sjf:64&budget=2000");
  EXPECT_EQ(spec.name, "opt:portfolio");
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params.at("budget"), "2000");
  EXPECT_EQ(spec.params.at("window"), "sjf:64");
  // Canonical form sorts keys; parse(to_string()) is the identity.
  EXPECT_EQ(spec.to_string(), "opt:portfolio?budget=2000&window=sjf:64");
  EXPECT_EQ(rh::MethodSpec::parse(spec.to_string()), spec);
}

TEST(MethodSpec, RoundTripEveryCanonicalMethod) {
  for (const char* m : {"fcfs", "sjf", "opt:portfolio", "agent:claude37", "agent:o4mini", "easy",
                        "agent:fastlocal"}) {
    const rh::MethodSpec spec(m);
    EXPECT_EQ(rh::MethodSpec::parse(spec.to_string()), spec);
  }
}

TEST(MethodSpec, TrimsWhitespace) {
  EXPECT_EQ(rh::MethodSpec::parse("  fcfs \n").to_string(), "fcfs");
}

TEST(MethodSpec, GrammarErrors) {
  expect_spec_error([] { rh::MethodSpec::parse(""); }, {"empty"});
  expect_spec_error([] { rh::MethodSpec::parse("?budget=1"); }, {"no name"});
  expect_spec_error([] { rh::MethodSpec::parse("FCFS"); }, {"FCFS", "invalid character"});
  expect_spec_error([] { rh::MethodSpec::parse("fcfs?"); }, {"no parameters"});
  expect_spec_error([] { rh::MethodSpec::parse("fcfs?budget"); }, {"budget", "key=value"});
  expect_spec_error([] { rh::MethodSpec::parse("fcfs?=3"); }, {"key=value"});
  expect_spec_error([] { rh::MethodSpec::parse("fcfs?budget="); }, {"key=value"});
  expect_spec_error([] { rh::MethodSpec::parse("opt:portfolio?budget=1&budget=2"); },
                    {"duplicate", "budget"});
  expect_spec_error([] { rh::MethodSpec::parse("fcfs?bad-key=1"); },
                    {"bad-key", "invalid character"});
}

TEST(MethodSpec, ImplicitStringConversionParses) {
  const rh::MethodSpec spec = "agent:claude37?window=arrival:32";
  EXPECT_EQ(spec.name, "agent:claude37");
  EXPECT_EQ(spec.params.at("window"), "arrival:32");
  EXPECT_THROW(rh::MethodSpec{"not a spec"}, ru::SpecError);
}

TEST(MethodSpec, OrderingIsValueBased) {
  const rh::MethodSpec plain("opt:portfolio");
  const rh::MethodSpec windowed("opt:portfolio?window=sjf:64");
  EXPECT_NE(plain, windowed);
  EXPECT_TRUE(plain < windowed || windowed < plain);
  EXPECT_EQ(plain, rh::MethodSpec("opt:portfolio"));
}

TEST(MethodRegistry, ListsAllBuiltinMethods) {
  const auto names = rh::MethodRegistry::instance().names();
  for (const char* expected : {"fcfs", "sjf", "easy", "opt:portfolio", "agent:claude37",
                               "agent:o4mini", "agent:fastlocal"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "registry should list " << expected;
  }
  const std::string listing = rh::MethodRegistry::instance().describe();
  for (const char* fragment : {"opt:portfolio", "budget", "window", "scratchpad", "auto"}) {
    EXPECT_NE(listing.find(fragment), std::string::npos)
        << "--list-methods output should mention " << fragment;
  }
}

TEST(MethodRegistry, ListingIsSortedCanonicalOrder) {
  // --list-methods output is part of the CI smoke contract: emitted in
  // sorted canonical-name order, independent of registration or hash order,
  // so diffs of captured listings are stable across link order changes.
  const auto names = rh::MethodRegistry::instance().names();
  EXPECT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  // describe()'s top-level (non-indented) entries appear in that same order.
  const std::string listing = rh::MethodRegistry::instance().describe();
  std::vector<std::string> top_level;
  std::size_t pos = 0;
  while (pos < listing.size()) {
    const std::size_t eol = listing.find('\n', pos);
    const std::string line = listing.substr(pos, eol - pos);
    if (!line.empty() && line[0] != ' ') {
      top_level.push_back(line.substr(0, line.find(' ')));
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  EXPECT_EQ(top_level, names);
}

TEST(MethodRegistry, FrozenAfterFirstLookup) {
  // Reads are lock-free and the sweep layer reads from worker threads, so
  // registration is startup-only: the first lookup freezes the registry and
  // a late add() fails loudly instead of racing the readers.
  auto& registry = rh::MethodRegistry::instance();
  (void)registry.names();  // any lookup freezes
  EXPECT_TRUE(registry.frozen());
  rh::MethodInfo late;
  late.name = "late:method";
  late.build = [](const rh::MethodSpec&, std::uint64_t) {
    return std::unique_ptr<rs::Scheduler>();
  };
  EXPECT_THROW(registry.add(std::move(late)), std::logic_error);
}

TEST(MethodRegistry, UnknownNameRejectedWithRegisteredList) {
  expect_spec_error([] { rh::make_scheduler(rh::MethodSpec("nosuch"), 1); },
                    {"unknown method 'nosuch'", "registered methods", "fcfs"});
}

TEST(MethodRegistry, UnknownKeyRejectedWithAcceptedList) {
  expect_spec_error(
      [] { rh::make_scheduler(rh::MethodSpec("opt:portfolio?bogus=1"), 1); },
      {"opt:portfolio", "does not accept parameter 'bogus'", "accepted parameters", "budget"});
  // Baselines accept no parameters at all.
  expect_spec_error([] { rh::make_scheduler(rh::MethodSpec("fcfs?window=arrival:8"), 1); },
                    {"fcfs", "does not accept parameter 'window'", "(none)"});
}

TEST(MethodRegistry, IllTypedValuesRejected) {
  expect_spec_error([] { rh::make_scheduler(rh::MethodSpec("opt:portfolio?budget=soon"), 1); },
                    {"budget", "integer", "soon"});
  expect_spec_error([] { rh::make_scheduler(rh::MethodSpec("opt:portfolio?budget=auto"), 1); },
                    {"budget", "integer", "auto"});
  expect_spec_error(
      [] { rh::make_scheduler(rh::MethodSpec("agent:claude37?scratchpad=maybe"), 1); },
      {"scratchpad", "boolean", "maybe"});
  // Keys whose one value in use became a constant are refused by name.
  expect_spec_error(
      [] { rh::make_scheduler(rh::MethodSpec("agent:claude37?scratchpad_budget=1"), 1); },
      {"does not accept parameter 'scratchpad_budget'", "accepted parameters: window, scratchpad"});
  expect_spec_error([] { rh::make_scheduler(rh::MethodSpec("opt:portfolio?xcheck=1"), 1); },
                    {"does not accept parameter 'xcheck'",
                     "accepted parameters: budget, ls_evals, window"});
  expect_spec_error(
      [] { rh::make_scheduler(rh::MethodSpec("agent:claude37?window=widest:8"), 1); },
      {"window", "widest", "arrival"});
  expect_spec_error(
      [] { rh::make_scheduler(rh::MethodSpec("agent:claude37?window=arrival:-3"), 1); },
      {"window", "non-negative"});
}

// An unbounded solver budget ran a single replan for hours; both evaluation
// counts are capped at 10^6 and the largest accepted value still builds.
TEST(MethodRegistry, SolverBudgetsAreBounded) {
  for (const std::string key : {"budget", "ls_evals"}) {
    const rh::MethodSpec over("opt:portfolio?" + key + "=100000000000");
    expect_spec_error([&] { rh::make_scheduler(over, 1); },
                      {"opt:portfolio", "parameter '" + key + "'", "must be in [0, 1000000]"});
    const rh::MethodSpec at_bound("opt:portfolio?" + key + "=1000000");
    EXPECT_NE(rh::make_scheduler(at_bound, 1), nullptr);
  }
}

TEST(MethodRegistry, WindowGrammar) {
  // All four accepted forms build; `auto` expands to the documented
  // trace-scale default rather than unbounded.
  for (const char* spec :
       {"agent:claude37?window=8", "agent:claude37?window=arrival:8",
        "agent:claude37?window=sjf:8", "agent:claude37?window=auto",
        "opt:portfolio?window=auto", "agent:claude37?window=0"}) {
    EXPECT_NE(rh::make_scheduler(rh::MethodSpec(spec), 1), nullptr) << spec;
  }
}

TEST(MethodSpec, LabelsDistinguishVariants) {
  EXPECT_EQ(rh::method_label(rh::MethodSpec("agent:claude37")), "Claude 3.7");
  EXPECT_EQ(rh::method_label(rh::MethodSpec("agent:claude37?window=arrival:32")),
            "Claude 3.7?window=arrival:32");
  EXPECT_EQ(rh::method_label(rh::MethodSpec("opt:portfolio?budget=500&window=sjf:16")),
            "OR-Tools*?budget=500&window=sjf:16");
}

TEST(MethodSpec, RunMethodAcceptsSpecLiterals) {
  const auto jobs = rw::generate_scenario("homog_short", 8, 5);
  const auto outcome = rh::run_method(jobs, "agent:claude37?window=arrival:4", 5);
  EXPECT_EQ(outcome.schedule.completed.size(), 8u);
  ASSERT_TRUE(outcome.overhead.has_value());
}

// Acceptance: a sweep over >= 3 windowed spec variants of one optimizer
// and one agent rides through grid, aggregation and export with no enum
// involvement anywhere.
TEST(MethodSpec, WindowedVariantsSweepThroughGridAndExport) {
  rh::SweepConfig config;
  config.scenarios = {"hetero_mix"};
  config.job_counts = {14};
  config.methods = {"opt:portfolio?budget=60&ls_evals=60&window=sjf:4",
                    "opt:portfolio?budget=60&ls_evals=60&window=sjf:8",
                    "opt:portfolio?budget=60&ls_evals=60&window=arrival:4",
                    "agent:claude37?window=arrival:4", "agent:claude37?window=arrival:8",
                    "agent:claude37?window=sjf:4"};
  config.repetitions = 1;
  config.base_seed = 11;
  config.threads = 2;

  std::map<rh::Cell, std::vector<std::string>> rows;
  std::map<rh::Cell, std::size_t> completed;
  const auto sweep = rh::run_sweep_streaming(
      config, [&](const rh::Cell& cell, const rh::RunOutcome& outcome) {
        rows.emplace(cell, rh::cell_runlog_row(cell, outcome));
        completed.emplace(cell, outcome.schedule.completed.size());
      });
  ASSERT_EQ(sweep.cells.size(), config.methods.size());
  EXPECT_EQ(sweep.groups.size(), config.methods.size());

  for (const auto& method : config.methods) {
    const rh::Cell cell{"hetero_mix", 14, method, 0};
    const auto it = rows.find(cell);
    ASSERT_NE(it, rows.end()) << method.to_string();
    EXPECT_EQ(completed.at(cell), 14u) << method.to_string();

    // Spec-keyed export: the run-log row leads with the canonical cell key,
    // so the variant is reconstructible from its row.
    const std::vector<std::string>& row = it->second;
    ASSERT_EQ(row.size(), rh::cell_runlog_columns().size());
    EXPECT_EQ(row[0], "hetero_mix");
    EXPECT_EQ(row[1], "14");
    EXPECT_EQ(row[2], method.to_string());
    EXPECT_EQ(row[3], "0");
  }

  // The variants are genuinely different methods: distinct seeds via labels.
  const rh::Cell narrow{"hetero_mix", 14, config.methods[0], 0};
  const rh::Cell wide{"hetero_mix", 14, config.methods[1], 0};
  EXPECT_NE(rh::cell_seed(config, narrow), rh::cell_seed(config, wide));
}

TEST(MethodSpec, WindowUnboundedEqualsCanonicalSpec) {
  // window=0 (explicit unbounded) decides identically to the parameter-free
  // canonical spec - top_k = 0 is the paper semantics either way.
  const auto jobs = rw::generate_scenario("resource_sparse", 12, 9);
  const auto base = rh::run_method(jobs, "agent:o4mini", 9);
  const auto windowed = rh::run_method(jobs, "agent:o4mini?window=arrival:0", 9);
  ASSERT_EQ(base.schedule.completed.size(), windowed.schedule.completed.size());
  for (std::size_t i = 0; i < base.schedule.completed.size(); ++i) {
    EXPECT_EQ(base.schedule.completed[i].job.id, windowed.schedule.completed[i].job.id);
    EXPECT_DOUBLE_EQ(base.schedule.completed[i].start_time,
                     windowed.schedule.completed[i].start_time);
  }
}
