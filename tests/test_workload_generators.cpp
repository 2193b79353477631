#include <gtest/gtest.h>

#include <set>

#include "workload/scenario_spec.hpp"
#include "workload/users.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;

// ---------------------------------------------------------------------------
// Generic properties every scenario generator must satisfy.
// ---------------------------------------------------------------------------

struct GenCase {
  std::size_t scenario;  ///< index into paper_scenario_specs()
  std::size_t n;
};

namespace {
const rw::ScenarioSpec& spec_of(const GenCase& c) {
  return rw::paper_scenario_specs()[c.scenario];
}
}  // namespace

class GeneratorProperties : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperties, WellFormedJobs) {
  const auto& p = GetParam();
  const auto jobs = rw::generate_scenario(spec_of(p), p.n, 42);
  const auto cluster = rs::ClusterSpec::paper_default();

  ASSERT_EQ(jobs.size(), p.n);
  std::set<rs::JobId> ids;
  double prev_submit = -1.0;
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.valid()) << j.describe();
    EXPECT_TRUE(ids.insert(j.id).second) << "duplicate id " << j.id;
    EXPECT_LE(j.nodes, cluster.total_nodes);
    EXPECT_LE(j.memory_gb, cluster.total_memory_gb);
    EXPECT_GE(j.user, 1);
    EXPECT_GE(j.group, 1);
    EXPECT_GE(j.submit_time, prev_submit);  // arrival-sorted
    prev_submit = j.submit_time;
  }
  // Ids are exactly 1..n.
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), static_cast<int>(p.n));
}

TEST_P(GeneratorProperties, DeterministicPerSeed) {
  const auto& p = GetParam();
  const auto a = rw::generate_scenario(spec_of(p), p.n, 7);
  const auto b = rw::generate_scenario(spec_of(p), p.n, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
  }
  const auto c = rw::generate_scenario(spec_of(p), p.n, 8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].duration != c[i].duration || a[i].submit_time != c[i].submit_time;
  }
  EXPECT_TRUE(differs) << "different seeds should differ";
}

TEST_P(GeneratorProperties, StaticModeZeroesArrivals) {
  const auto& p = GetParam();
  rw::GenerateOptions options;
  options.arrival_mode = rw::ArrivalMode::kStatic;
  const auto jobs = rw::generate_scenario(spec_of(p), p.n, 42, options);
  for (const auto& j : jobs) EXPECT_DOUBLE_EQ(j.submit_time, 0.0);
}

namespace {
std::vector<GenCase> gen_cases() {
  std::vector<GenCase> cases;
  for (std::size_t s = 0; s < rw::paper_scenario_specs().size(); ++s) {
    for (const std::size_t n : {10u, 60u}) cases.push_back({s, n});
  }
  return cases;
}
std::string gen_name(const ::testing::TestParamInfo<GenCase>& info) {
  std::string s = rw::scenario_label(spec_of(info.param)) + "_" + std::to_string(info.param.n);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(AllScenarios, GeneratorProperties,
                         ::testing::ValuesIn(gen_cases()), gen_name);

// ---------------------------------------------------------------------------
// Scenario-specific parameter checks (paper Section 3.1).
// ---------------------------------------------------------------------------

TEST(HomogeneousShort, MatchesPaperParameters) {
  const auto jobs = rw::generate_scenario("homog_short", 80, 1);
  for (const auto& j : jobs) {
    EXPECT_EQ(j.nodes, 2);
    EXPECT_DOUBLE_EQ(j.memory_gb, 4.0);
    EXPECT_GE(j.duration, 30.0);
    EXPECT_LE(j.duration, 120.0);
  }
}

TEST(ResourceSparse, MatchesPaperParameters) {
  const auto jobs = rw::generate_scenario("resource_sparse", 80, 2);
  for (const auto& j : jobs) {
    EXPECT_EQ(j.nodes, 1);
    EXPECT_LT(j.memory_gb, 8.0 + 1e-9);
    EXPECT_GE(j.duration, 30.0);
    EXPECT_LE(j.duration, 300.0);
  }
}

TEST(LongJobDominant, AboutTwentyPercentLong) {
  const auto jobs = rw::generate_scenario("long_job", 400, 3);
  std::size_t longs = 0;
  for (const auto& j : jobs) {
    if (j.nodes == 128) {
      ++longs;
      EXPECT_GE(j.duration, 45000.0);
      EXPECT_LE(j.duration, 55000.0);
    } else {
      EXPECT_EQ(j.nodes, 2);
      EXPECT_GE(j.duration, 400.0);
      EXPECT_LE(j.duration, 600.0);
    }
  }
  EXPECT_NEAR(static_cast<double>(longs) / 400.0, 0.2, 0.06);
}

TEST(HighParallelism, WideJobsOnly) {
  const auto jobs = rw::generate_scenario("high_parallel", 120, 4);
  for (const auto& j : jobs) {
    EXPECT_GE(j.nodes, 64);
    EXPECT_LE(j.nodes, 256);
  }
}

TEST(Adversarial, FirstArrivalIsTheBlocker) {
  const auto jobs = rw::generate_scenario("adversarial", 30, 5);
  const auto& first = jobs.front();  // arrival-sorted
  EXPECT_EQ(first.nodes, 128);
  EXPECT_DOUBLE_EQ(first.duration, 100000.0);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].nodes, 1);
    EXPECT_NEAR(jobs[i].duration, 60.0, 5.0);
  }
}

TEST(BurstyIdle, MixesShortAndLong) {
  const auto jobs = rw::generate_scenario("bursty_idle", 200, 6);
  std::size_t shorts = 0, longs = 0;
  for (const auto& j : jobs) {
    if (j.duration <= 240.0) ++shorts;
    if (j.duration >= 1800.0) ++longs;
  }
  EXPECT_GT(shorts, 50u);
  EXPECT_GT(longs, 20u);
}

TEST(HeterogeneousMix, GammaRuntimeMean) {
  // Gamma(1.5, 300) => mean 450 (with the 10 s floor slightly raising it).
  const auto jobs = rw::generate_scenario("hetero_mix", 2000, 7);
  double total = 0.0;
  for (const auto& j : jobs) total += j.duration;
  EXPECT_NEAR(total / 2000.0, 450.0, 40.0);
}

TEST(Scenario, PaperJobCounts) {
  EXPECT_EQ(rw::paper_job_counts(),
            (std::vector<std::size_t>{10, 20, 40, 60, 80, 100}));
}

TEST(Users, ZipfWeightsDecreasing) {
  const auto w = rw::zipf_weights(5, 1.0);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}
