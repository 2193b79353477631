#include "opt/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace reasched::opt {

namespace {

constexpr double kInitialTemperature = 0.05;  ///< fraction of the seed score
constexpr double kCooling = 0.995;            ///< geometric cooling per iteration

}  // namespace

SaResult simulated_annealing(const ProblemView& problem, std::vector<std::size_t> seed_order,
                             const ObjectiveWeights& weights, const SaConfig& config,
                             util::Rng& rng) {
  if (seed_order.size() != problem.n_jobs()) {
    throw std::invalid_argument("decode_order: order size mismatch");
  }
  SaResult best;
  best.order = seed_order;
  IncrementalEvaluator eval(problem, weights, config.eval);
  best.score = eval.score(best.order);
  best.evaluations = 1;

  const std::size_t n = seed_order.size();
  if (n < 2) {
    best.eval = eval.stats();
    return best;
  }

  std::vector<std::size_t> current = std::move(seed_order);
  double current_score = best.score;
  double temperature = std::max(1e-9, best.score * kInitialTemperature);

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    std::vector<std::size_t> candidate = current;
    const auto move = rng.uniform_int(0, 2);
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = (j + 1) % n;
    switch (move) {
      case 0:  // swap
        std::swap(candidate[i], candidate[j]);
        break;
      case 1: {  // insert i at position j
        const std::size_t v = candidate[i];
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(std::min(j, n - 1)), v);
        break;
      }
      default: {  // reverse the block between i and j
        const auto [lo, hi] = std::minmax(i, j);
        std::reverse(candidate.begin() + static_cast<std::ptrdiff_t>(lo),
                     candidate.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        break;
      }
    }
    ++best.evaluations;
    // kGreater: an abort proves score > current_score, i.e. delta > 0 - the
    // branch where the baseline draws its acceptance uniform. Draw it here
    // too so the RNG stream stays aligned, then reject outright when the
    // draw already fails the *optimistic* acceptance probability: exp is
    // monotone, so u >= exp(-(bound-cur)/T) >= exp(-delta/T) rejects under
    // the exact delta as well. Only the inconclusive window pays for the
    // exact score.
    const auto r = eval.score_with_cutoff(candidate, current_score, CutoffMode::kGreater);
    double score = r.value;
    bool accept;
    if (r.exact) {
      const double delta = score - current_score;
      accept = delta <= 0.0 || rng.uniform_real(0.0, 1.0) < std::exp(-delta / temperature);
    } else {
      const double u = rng.uniform_real(0.0, 1.0);
      if (u >= std::exp(-(r.value - current_score) / temperature)) {
        accept = false;
      } else {
        // Inconclusive: resolve exactly by finishing the aborted decode from
        // its snapshot instead of re-decoding the candidate from scratch.
        score = eval.resume_exact(candidate).value;
        accept = u < std::exp(-(score - current_score) / temperature);
      }
    }
    if (accept) {
      current = std::move(candidate);
      current_score = score;
      ++best.accepted_moves;
      if (score < best.score) {
        best.score = score;
        best.order = current;
      }
      // Re-anchor the divergence cache on the incumbent: the accepting call
      // just decoded this exact order to completion, so the adoption is O(1).
      eval.commit_last();
    }
    temperature = std::max(1e-9, temperature * kCooling);
  }
  best.eval = eval.stats();
  return best;
}

}  // namespace reasched::opt
