// Property suite: for every (scenario x scheduler x seed) combination the
// engine must uphold its core invariants - every job completes exactly once,
// capacity is never exceeded at any instant, and causality holds.

#include <gtest/gtest.h>

#include <set>

#include "harness/methods.hpp"
#include "opt/resource_profile.hpp"
#include "sim/engine.hpp"
#include "workload/scenario_spec.hpp"

namespace rs = reasched::sim;
namespace rw = reasched::workload;
namespace rh = reasched::harness;

const char* const kMethods[] = {"fcfs",          "sjf",           "easy",
                                "opt:portfolio", "agent:claude37", "agent:o4mini"};

struct PropertyCase {
  std::size_t scenario;  ///< index into paper_scenario_specs()
  std::size_t method;    ///< index into kMethods
  std::uint64_t seed;
  std::size_t n_jobs;
};

class EngineInvariants : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EngineInvariants, HoldAcrossScenariosAndSchedulers) {
  const auto& p = GetParam();
  const auto jobs = rw::generate_scenario(rw::paper_scenario_specs()[p.scenario], p.n_jobs, p.seed);
  const auto scheduler = rh::make_scheduler(kMethods[p.method], p.seed);
  rs::Engine engine;
  const auto result = engine.run(jobs, *scheduler);

  // 1. Every job completed exactly once.
  ASSERT_EQ(result.completed.size(), jobs.size());
  std::set<rs::JobId> seen;
  for (const auto& c : result.completed) EXPECT_TRUE(seen.insert(c.job.id).second);

  // 2. Causality: start >= submit, end = start + duration, non-preemptive.
  for (const auto& c : result.completed) {
    EXPECT_GE(c.start_time, c.job.submit_time - 1e-9);
    EXPECT_NEAR(c.end_time, c.start_time + c.job.duration, 1e-9);
  }

  // 3. Capacity: rebuild the whole schedule in a ResourceProfile, which
  //    throws if nodes or memory are ever exceeded (independent oracle).
  const auto& spec = engine.config().cluster;
  reasched::opt::ResourceProfile profile(spec.total_nodes, spec.total_memory_gb);
  for (const auto& c : result.completed) {
    ASSERT_NO_THROW(
        profile.add(c.start_time, c.job.duration, c.job.nodes, c.job.memory_gb))
        << "capacity violated by job " << c.job.id << " under "
        << kMethods[p.method];
  }
  EXPECT_LE(profile.peak_nodes(), spec.total_nodes);

  // 4. final_time equals the last completion.
  double max_end = 0.0;
  for (const auto& c : result.completed) max_end = std::max(max_end, c.end_time);
  EXPECT_DOUBLE_EQ(result.final_time, max_end);
}

namespace {
std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  std::uint64_t seed = 1000;
  for (std::size_t scenario = 0; scenario < rw::paper_scenario_specs().size(); ++scenario) {
    for (std::size_t method = 0; method < std::size(kMethods); ++method) {
      cases.push_back({scenario, method, seed++, 24});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string s = rw::scenario_label(rw::paper_scenario_specs()[info.param.scenario]) + "_" +
                  rh::method_label(kMethods[info.param.method]);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(AllScenariosAllMethods, EngineInvariants,
                         ::testing::ValuesIn(make_cases()), case_name);

// Dedicated check: the paired-workload property the sweep depends on - the
// same (scenario, n, seed) always yields the identical job list.
TEST(EngineDeterminism, SameSeedSameScheduleForStochasticMethods) {
  const auto jobs = rw::generate_scenario("hetero_mix", 30, 777);
  for (const auto method : {"opt:portfolio", "agent:claude37"}) {
    const auto s1 = rh::make_scheduler(method, 99);
    const auto s2 = rh::make_scheduler(method, 99);
    rs::Engine engine;
    const auto r1 = engine.run(jobs, *s1);
    const auto r2 = engine.run(jobs, *s2);
    ASSERT_EQ(r1.completed.size(), r2.completed.size());
    for (std::size_t i = 0; i < r1.completed.size(); ++i) {
      EXPECT_DOUBLE_EQ(r1.completed[i].start_time, r2.completed[i].start_time)
          << rh::method_label(method) << " not deterministic";
    }
  }
}

TEST(EngineDeterminism, DifferentSeedsDifferForStochasticMethods) {
  const auto jobs = rw::generate_scenario("hetero_mix", 40, 778);
  const auto s1 = rh::make_scheduler("agent:o4mini", 1);
  const auto s2 = rh::make_scheduler("agent:o4mini", 2);
  rs::Engine engine;
  const auto r1 = engine.run(jobs, *s1);
  const auto r2 = engine.run(jobs, *s2);
  bool any_difference = false;
  for (std::size_t i = 0; i < r1.completed.size(); ++i) {
    if (r1.completed[i].start_time != r2.completed[i].start_time) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "decision noise should vary across seeds";
}
