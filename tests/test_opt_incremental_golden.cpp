// Differential oracle for the incremental-evaluation layer (PR 6): every
// solver must make bit-identical decisions - same orders, same scores, same
// evaluation counts - whether candidates are scored through the cached
// incremental decoder with bound cutoffs or through the untouched
// evaluate(decode_subset(...)) pipeline. Score equality is asserted with
// EXPECT_EQ on doubles on purpose: the design guarantee is bitwise identity,
// not closeness.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "opt/branch_and_bound.hpp"
#include "opt/incremental.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/simulated_annealing.hpp"
#include "util/rng.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;

namespace {

rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  return j;
}

/// Random instance with staggered arrivals and a pinned allocation so the
/// decode exercises the release heap from the start.
ro::Problem random_problem(reasched::util::Rng& rng, std::size_t n) {
  ro::Problem p;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  p.now = rng.uniform_real(0.0, 50.0);
  p.pinned.push_back({p.now + rng.uniform_real(5.0, 60.0), 32, 128.0});
  for (std::size_t i = 0; i < n; ++i) {
    p.jobs.push_back(make_job(static_cast<int>(i + 1),
                              static_cast<int>(rng.uniform_int(1, 200)),
                              rng.uniform_real(1.0, 1024.0), rng.uniform_real(10.0, 400.0),
                              rng.uniform_real(0.0, 80.0)));
  }
  return p;
}

/// Weights that light up every objective term (the cutoff bound has distinct
/// makespan / completion / wait branches).
ro::ObjectiveWeights mixed_weights() { return {1.0, 0.05, 0.2}; }

constexpr ro::EvalPolicy kIncremental{true, false};
constexpr ro::EvalPolicy kNaive{false, false};
constexpr ro::EvalPolicy kCrossChecked{true, true};

}  // namespace

// ---------------------------------------------------------------------------
// Evaluator-level properties.

class IncrementalEvalSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Random swap/insert/shuffle deltas must score bit-identically to a fresh
// full evaluation, no matter how the cache was primed.
TEST_P(IncrementalEvalSeeds, RandomDeltasMatchFullReEvaluation) {
  reasched::util::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  const auto p = random_problem(rng, n);
  const ro::ProblemView view(p);
  const auto w = mixed_weights();
  ro::IncrementalEvaluator eval(view, w, kCrossChecked);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  ASSERT_EQ(eval.score(order), ro::evaluate(ro::decode_subset(view, order), w));

  for (int step = 0; step < 60; ++step) {
    const auto kind = rng.uniform_int(0, 2);
    if (kind == 0) {  // swap two positions
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      std::swap(order[i], order[j]);
    } else if (kind == 1) {  // move one job to a new position
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const std::size_t job = order[i];
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(j), job);
    } else {
      rng.shuffle(order);
    }
    // Alternate between the caching and the non-caching entry point so both
    // replay paths are exercised; cross_check already asserts bit-identity
    // inside, the EXPECT_EQ documents it at the API boundary.
    const double full = ro::evaluate(ro::decode_subset(view, order), w);
    if (step % 2 == 0) {
      EXPECT_EQ(eval.score(order), full);
    } else {
      const auto r = eval.score_with_cutoff(order, ro::IncrementalEvaluator::kNoCutoff,
                                            ro::CutoffMode::kGreaterEqual);
      ASSERT_TRUE(r.exact);
      EXPECT_EQ(r.value, full);
    }
  }
}

// Growing/shrinking subsets (the B&B prefix walk) must match decode_subset.
TEST_P(IncrementalEvalSeeds, SubsetPrefixWalkMatchesDecodeSubset) {
  reasched::util::Rng rng(GetParam() + 1000);
  const auto p = random_problem(rng, 12);
  const ro::ProblemView view(p);
  const auto w = mixed_weights();
  ro::IncrementalEvaluator eval(view, w, kCrossChecked);

  std::vector<std::size_t> prefix;
  for (int step = 0; step < 100; ++step) {
    if (prefix.empty() || (prefix.size() < 12 && rng.bernoulli(0.6))) {
      // push a random unused job
      std::vector<std::size_t> unused;
      for (std::size_t i = 0; i < 12; ++i) {
        if (std::find(prefix.begin(), prefix.end(), i) == prefix.end()) unused.push_back(i);
      }
      prefix.push_back(
          unused[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(unused.size()) - 1))]);
    } else {
      prefix.pop_back();
    }
    const ro::PlannedSchedule plan = ro::decode_subset(view, prefix);
    EXPECT_EQ(eval.score(prefix), ro::evaluate(plan, w));
    const auto acc = eval.cached_accumulators();
    EXPECT_EQ(acc.makespan, plan.makespan);
    EXPECT_EQ(acc.completion, plan.total_completion);
    EXPECT_EQ(acc.wait, plan.total_wait);
  }
}

// The insertion sweep: every exact probe equals the materialized candidate's
// full score; every abort returns an admissible bound at or above the cutoff.
TEST_P(IncrementalEvalSeeds, InsertionSweepMatchesMaterializedDecode) {
  reasched::util::Rng rng(GetParam() + 2000);
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 25));
  const auto p = random_problem(rng, n);
  const ro::ProblemView view(p);
  const auto w = mixed_weights();
  ro::IncrementalEvaluator eval(view, w, kCrossChecked);

  // Base = all but one random job; sweep that job through every position.
  std::vector<std::size_t> base(n);
  std::iota(base.begin(), base.end(), std::size_t{0});
  rng.shuffle(base);
  const std::size_t newcomer = base.back();
  base.pop_back();
  eval.score(base);

  double best = ro::IncrementalEvaluator::kNoCutoff;
  for (std::size_t pos = 0; pos <= base.size(); ++pos) {
    std::vector<std::size_t> candidate = base;
    candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(pos), newcomer);
    const double full = ro::evaluate(ro::decode_subset(view, candidate), w);
    const auto r = eval.score_insertion(pos, newcomer, best, ro::CutoffMode::kGreaterEqual);
    if (r.exact) {
      EXPECT_EQ(r.value, full);
      best = std::min(best, r.value);
    } else {
      EXPECT_LE(r.value, full);  // admissible
      EXPECT_GE(r.value, best);  // proves the rejection
    }
  }
  ASSERT_LT(base.size(), n);
  EXPECT_THROW(eval.score_insertion(base.size() + 1, newcomer,
                                    ro::IncrementalEvaluator::kNoCutoff,
                                    ro::CutoffMode::kGreaterEqual),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEvalSeeds, ::testing::Range<std::uint64_t>(0, 12));

// A negative objective weight breaks the monotonicity the bound rests on;
// the evaluator must then refuse to abort (exact scores only).
TEST(IncrementalEval, NegativeWeightDisablesCutoffs) {
  reasched::util::Rng rng(77);
  const auto p = random_problem(rng, 10);
  const ro::ProblemView view(p);
  const ro::ObjectiveWeights w{1.0, -0.1, 0.0};
  ro::IncrementalEvaluator eval(view, w, kIncremental);
  std::vector<std::size_t> order(10);
  std::iota(order.begin(), order.end(), std::size_t{0});
  eval.score(order);
  for (int step = 0; step < 20; ++step) {
    rng.shuffle(order);
    const auto r = eval.score_with_cutoff(order, -1e300, ro::CutoffMode::kGreaterEqual);
    ASSERT_TRUE(r.exact);  // an armed cutoff of -inf-ish would abort instantly
    EXPECT_EQ(r.value, ro::evaluate(ro::decode_subset(view, order), w));
  }
  EXPECT_EQ(eval.stats().cutoff_hits, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: relative-tolerance acceptance (improves) at large magnitudes.

TEST(Improves, RelativeToleranceAtLargeMakespan) {
  // Near zero the floor is the absolute 1e-9 (the seed's behaviour)...
  EXPECT_TRUE(ro::improves(0.9, 1.0));
  EXPECT_FALSE(ro::improves(1.0, 1.0));
  EXPECT_FALSE(ro::improves(1.0 - 1e-10, 1.0));
  // ... at Polaris-scale scores the old absolute 1e-12 epsilon was below one
  // ulp (~1e-4 at 1e12), so float noise of a re-decoded identical plan could
  // register as an "improvement". The relative tolerance (|y| * 1e-12) makes
  // sub-noise deltas explicitly non-improving.
  const double big = 1e12;
  EXPECT_FALSE(ro::improves(big - 0.5, big));  // inside |y|*1e-12 = 1.0
  EXPECT_TRUE(ro::improves(big - 2.5, big));   // genuine improvement
}

TEST(Improves, LocalSearchTerminatesAtLargeMagnitude) {
  // Jobs submitted ~30 years into simulated time: scores ~1e9. The local
  // search must converge (not churn on noise-level "improvements") and never
  // end worse than the seed.
  ro::Problem p;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  p.now = 1.0e9;
  for (int i = 0; i < 14; ++i) {
    p.jobs.push_back(
        make_job(i + 1, 32 + (i % 5) * 40, 64.0, 300.0 + 17.0 * i, 1.0e9 + 3.0 * i));
  }
  const ro::ObjectiveWeights w = mixed_weights();
  const auto seed = ro::order_by_arrival(p);
  const double seed_score = ro::evaluate(ro::decode_order(p, seed), w);
  const auto r = ro::local_search(ro::ProblemView(p), seed, w, 20000, kCrossChecked);
  EXPECT_LE(r.score, seed_score);
  EXPECT_LT(r.evaluations, 20000u);  // converged, not budget-capped
}

// ---------------------------------------------------------------------------
// Solver-level differential oracle: incremental + cutoffs vs naive full
// decode, bit-identical results and counters. Each solver also runs once
// with the per-candidate cross-check armed (throws on any divergence).

class SolverDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    reasched::util::Rng rng(GetParam() * 31 + 7);
    problem_ = random_problem(rng, 9 + static_cast<std::size_t>(GetParam() % 16));
    view_ = ro::ProblemView(problem_);
    weights_ = mixed_weights();
    seed_ = ro::order_by_arrival(view_);
  }

  ro::Problem problem_;
  ro::ProblemView view_;
  ro::ObjectiveWeights weights_;
  std::vector<std::size_t> seed_;
};

TEST_P(SolverDifferential, LocalSearch) {
  const auto fast = ro::local_search(view_, seed_, weights_, 5000, kIncremental);
  const auto naive = ro::local_search(view_, seed_, weights_, 5000, kNaive);
  EXPECT_EQ(fast.order, naive.order);
  EXPECT_EQ(fast.score, naive.score);
  EXPECT_EQ(fast.evaluations, naive.evaluations);
  const auto checked = ro::local_search(view_, seed_, weights_, 5000, kCrossChecked);
  EXPECT_EQ(checked.order, fast.order);
}

TEST_P(SolverDifferential, SimulatedAnnealing) {
  ro::SaConfig config;
  config.iterations = 1500;
  reasched::util::Rng r1(42), r2(42), r3(42);
  config.eval = kIncremental;
  const auto fast = ro::simulated_annealing(view_, seed_, weights_, config, r1);
  config.eval = kNaive;
  const auto naive = ro::simulated_annealing(view_, seed_, weights_, config, r2);
  EXPECT_EQ(fast.order, naive.order);
  EXPECT_EQ(fast.score, naive.score);
  EXPECT_EQ(fast.evaluations, naive.evaluations);
  EXPECT_EQ(fast.accepted_moves, naive.accepted_moves);
  config.eval = kCrossChecked;
  const auto checked = ro::simulated_annealing(view_, seed_, weights_, config, r3);
  EXPECT_EQ(checked.order, fast.order);
  EXPECT_EQ(checked.accepted_moves, fast.accepted_moves);
}

TEST_P(SolverDifferential, BranchAndBound) {
  ro::BnbConfig config;
  config.max_nodes = 20000;
  config.eval = kIncremental;
  const auto fast = ro::branch_and_bound(view_, weights_, config);
  config.eval = kNaive;
  const auto naive = ro::branch_and_bound(view_, weights_, config);
  // The incremental prefix decode feeds the same bound values, so the whole
  // search tree - explored and pruned node counts included - is identical.
  EXPECT_EQ(fast.order, naive.order);
  EXPECT_EQ(fast.score, naive.score);
  EXPECT_EQ(fast.explored, naive.explored);
  EXPECT_EQ(fast.pruned, naive.pruned);
  EXPECT_EQ(fast.proven_optimal, naive.proven_optimal);
  config.eval = kCrossChecked;
  const auto checked = ro::branch_and_bound(view_, weights_, config);
  EXPECT_EQ(checked.order, fast.order);
  EXPECT_EQ(checked.explored, fast.explored);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferential, ::testing::Range<std::uint64_t>(0, 8));
