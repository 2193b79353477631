#pragma once

#include <cstddef>
#include <vector>

#include "opt/incremental.hpp"
#include "opt/model.hpp"
#include "opt/objective.hpp"

namespace reasched::opt {

struct BnbConfig {
  /// Hard cap on explored nodes; on expiry the incumbent is returned with
  /// proven_optimal = false.
  std::size_t max_nodes = 250000;
  EvalPolicy eval;  ///< incremental prefix-decode wiring (the search tree is
                    ///< identical either way; only the decode mechanics change)
};

struct BnbResult {
  std::vector<std::size_t> order;
  double score = 0.0;
  std::size_t explored = 0;
  std::size_t pruned = 0;  ///< subtrees cut by the lower bound
  bool proven_optimal = false;
};

/// Exact branch-and-bound over job permutations (depth-first, incrementally
/// cached prefix decoding, area + critical-path lower bounds with O(1)
/// running remaining-work sums, equivalence-class dominance, children
/// visited best-bound-first). Optimal within the list-schedule space - tests
/// verify it matches exhaustive enumeration on small instances. The node
/// budget makes it usable as an anytime solver on deep queues; the
/// optimizing scheduler still falls back to SA beyond its threshold.
BnbResult branch_and_bound(const ProblemView& problem, const ObjectiveWeights& weights,
                           const BnbConfig& config = {});

}  // namespace reasched::opt
