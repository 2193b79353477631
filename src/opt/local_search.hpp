#pragma once

#include <vector>

#include "opt/incremental.hpp"
#include "opt/model.hpp"
#include "opt/objective.hpp"

namespace reasched::opt {

/// First-improvement hill climbing over permutations with adjacent-swap and
/// single-insert neighbourhoods. Cheap polish applied to seed orderings and
/// to the simulated-annealing incumbent.
struct LocalSearchResult {
  std::vector<std::size_t> order;
  double score = 0.0;
  std::size_t evaluations = 0;
  EvalStats eval;  ///< incremental-evaluation counters (cutoff hit rate etc.)
};

LocalSearchResult local_search(const ProblemView& problem, std::vector<std::size_t> order,
                               const ObjectiveWeights& weights,
                               std::size_t max_evaluations = 20000, EvalPolicy policy = {});

}  // namespace reasched::opt
