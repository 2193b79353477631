#include <gtest/gtest.h>

#include <algorithm>

#include "llm/latency_model.hpp"
#include "llm/model_profile.hpp"
#include "llm/token_counter.hpp"
#include "util/stats.hpp"

namespace rl = reasched::llm;
namespace ru = reasched::util;

TEST(TokenCounter, RoughlyFourCharsPerToken) {
  EXPECT_EQ(rl::estimate_tokens(""), 0);
  EXPECT_EQ(rl::estimate_tokens("abcd"), 1);
  EXPECT_EQ(rl::estimate_tokens("abcde"), 2);
  EXPECT_EQ(rl::estimate_tokens(std::string(4000, 'x')), 1000);
}

TEST(QueueHeterogeneity, UniformIsZeroMixedIsHigh) {
  EXPECT_DOUBLE_EQ(rl::queue_heterogeneity({100, 100, 100}, {2, 2, 2}), 0.0);
  const double mixed =
      rl::queue_heterogeneity({10, 5000, 60, 40000}, {1, 256, 2, 128});
  EXPECT_GT(mixed, 0.5);
  EXPECT_LE(mixed, 1.0);
  EXPECT_DOUBLE_EQ(rl::queue_heterogeneity({}, {}), 0.0);
}

TEST(LatencyModel, AlwaysPositive) {
  const rl::LatencyModel model(rl::claude37_profile().latency);
  ru::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GT(model.sample(2000, 0.5, rng), 0.0);
  }
}

TEST(LatencyModel, ClaudeTightlyClusteredBelowTenSeconds) {
  // Figure 5: Claude 3.7 per-call latencies cluster below 10 s.
  const rl::LatencyModel model(rl::claude37_profile().latency);
  ru::Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(model.sample(1500, 0.3, rng));
  EXPECT_LT(ru::quantile(xs, 0.95), 10.0);
  EXPECT_LT(ru::mean(xs), 7.0);
}

TEST(LatencyModel, O4HeavyTailedWithBigOutliers) {
  // Figure 5: O4-Mini shows outliers beyond 100 s.
  const rl::LatencyModel model(rl::o4mini_profile().latency);
  ru::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(model.sample(3000, 0.8, rng));
  EXPECT_GT(*std::max_element(xs.begin(), xs.end()), 100.0);
  EXPECT_GT(ru::mean(xs), ru::median(xs));  // right-skewed
  EXPECT_GT(ru::mean(xs), 15.0);
}

TEST(LatencyModel, TokenSensitivityGrowsLatency) {
  const rl::LatencyModel model(rl::o4mini_profile().latency);
  ru::Rng rng_small(4), rng_large(4);
  double small = 0, large = 0;
  for (int i = 0; i < 500; ++i) {
    small += model.sample(1000, 0.5, rng_small);
    large += model.sample(20000, 0.5, rng_large);
  }
  EXPECT_GT(large, small * 1.5);  // context growth visibly slows calls
}

TEST(LatencyModel, HeterogeneityGrowsLatency) {
  const rl::LatencyModel model(rl::o4mini_profile().latency);
  ru::Rng rng_a(5), rng_b(5);
  double uniform = 0, mixed = 0;
  for (int i = 0; i < 500; ++i) {
    uniform += model.sample(2000, 0.0, rng_a);
    mixed += model.sample(2000, 1.0, rng_b);
  }
  EXPECT_GT(mixed, uniform * 1.3);
}

TEST(Profiles, PaperConfiguration) {
  const auto claude = rl::claude37_profile();
  EXPECT_EQ(claude.display_name, "Claude 3.7");
  EXPECT_EQ(claude.max_completion_tokens, 5000);   // Section 3.3
  EXPECT_DOUBLE_EQ(claude.temperature, 0.0);

  const auto o4 = rl::o4mini_profile();
  EXPECT_EQ(o4.display_name, "O4-Mini");
  EXPECT_GT(o4.reasoning_tokens, claude.reasoning_tokens);
  EXPECT_GT(o4.latency.tail_probability, claude.latency.tail_probability);
  // The temperament difference driving Section 3.5's fairness contrast.
  EXPECT_GT(claude.temperament.w_fairness, o4.temperament.w_fairness);
}

TEST(Profiles, FastLocalIsMuchFaster) {
  const rl::LatencyModel fast(rl::fast_local_profile().latency);
  const rl::LatencyModel claude(rl::claude37_profile().latency);
  ru::Rng a(6), b(6);
  double fast_total = 0, claude_total = 0;
  for (int i = 0; i < 300; ++i) {
    fast_total += fast.sample(2000, 0.5, a);
    claude_total += claude.sample(2000, 0.5, b);
  }
  EXPECT_LT(fast_total * 5.0, claude_total);
}
