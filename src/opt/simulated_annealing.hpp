#pragma once

#include <vector>

#include "opt/incremental.hpp"
#include "opt/model.hpp"
#include "opt/objective.hpp"
#include "util/rng.hpp"

namespace reasched::opt {

struct SaConfig {
  std::size_t iterations = 4000;
  EvalPolicy eval;  ///< incremental/cutoff evaluation wiring
};

struct SaResult {
  std::vector<std::size_t> order;
  double score = 0.0;
  std::size_t accepted_moves = 0;
  std::size_t evaluations = 0;
  EvalStats eval;  ///< incremental-evaluation counters (cutoff hit rate etc.)
};

/// Simulated annealing over permutations (swap / insert / block-reverse
/// moves). The classical metaheuristic the paper's related work cites
/// (Bertsimas & Tsitsiklis 1993) applied to the list-schedule decoder;
/// together with branch-and-bound it forms the OR-Tools-like baseline.
SaResult simulated_annealing(const ProblemView& problem, std::vector<std::size_t> seed_order,
                             const ObjectiveWeights& weights, const SaConfig& config,
                             util::Rng& rng);

}  // namespace reasched::opt
