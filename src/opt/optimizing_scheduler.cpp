#include "opt/optimizing_scheduler.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "util/string_utils.hpp"

namespace reasched::opt {

namespace {

/// Full metaheuristic re-optimization every this many greedy insertions (new
/// arrivals are first placed by best-position insertion, which is cheap;
/// periodic SA keeps the plan near-optimal).
constexpr std::size_t kReoptEvery = 16;

}  // namespace

OptimizingScheduler::OptimizingScheduler(OptimizingSchedulerConfig config)
    : config_(config), rng_(config.seed) {}

void OptimizingScheduler::reset() {
  rng_ = util::Rng(config_.seed);
  priority_.clear();
  window_scratch_.clear();
  insertions_since_reopt_ = 0;
  replans_ = 0;
  eval_totals_ = EvalStats{};
  bnb_nodes_ = 0;
  last_thought_.clear();
}

void OptimizingScheduler::accumulate_eval(const EvalStats& stats) {
  eval_totals_.evaluations += stats.evaluations;
  eval_totals_.cutoff_hits += stats.cutoff_hits;
  eval_totals_.steps_decoded += stats.steps_decoded;
  eval_totals_.steps_reused += stats.steps_reused;
}

std::vector<std::pair<std::string, double>> OptimizingScheduler::obs_counters() const {
  return {{"opt/replans", static_cast<double>(replans_)},
          {"opt/evaluations", static_cast<double>(eval_totals_.evaluations)},
          {"opt/cutoff_hits", static_cast<double>(eval_totals_.cutoff_hits)},
          {"opt/steps_decoded", static_cast<double>(eval_totals_.steps_decoded)},
          {"opt/steps_reused", static_cast<double>(eval_totals_.steps_reused)},
          {"opt/bnb_nodes", static_cast<double>(bnb_nodes_)}};
}

void OptimizingScheduler::full_replan(const ProblemView& problem) {
  ++replans_;
  if (problem.n_jobs() <= kBnbThreshold) {
    const BnbResult exact = branch_and_bound(problem, config_.weights);
    bnb_nodes_ += exact.explored;
    priority_.clear();
    for (const std::size_t idx : exact.order) priority_.push_back(problem.job(idx).id);
    last_thought_ = util::format("replan: branch-and-bound over %zu jobs (%zu nodes, %s)",
                                 problem.n_jobs(), exact.explored,
                                 exact.proven_optimal ? "proven optimal" : "budget-capped");
    return;
  }
  // Portfolio: best seed -> local search -> SA -> final polish. A seeded
  // random restart joins the deterministic seeds; it is what makes repeated
  // runs explore different (equally good on makespan, different on
  // wait-fairness) plans - the run-to-run variance Figure 7 observes for
  // OR-Tools.
  std::vector<std::size_t> shuffled = order_by_arrival(problem);
  rng_.shuffle(shuffled);
  IncrementalEvaluator seed_eval(problem, config_.weights);
  std::vector<std::size_t> best = order_spt(problem);
  double best_score = seed_eval.score(best);
  for (const auto& seed : {order_by_arrival(problem), order_lpt(problem),
                           order_widest(problem), shuffled}) {
    const double s = seed_eval.score(seed);
    if (s < best_score) {
      best_score = s;
      best = seed;
    }
  }
  const std::size_t ls_evals = config_.local_search_evals;
  auto ls = local_search(problem, std::move(best), config_.weights, ls_evals);
  auto sa = simulated_annealing(problem, std::move(ls.order), config_.weights, config_.sa, rng_);
  auto polished = local_search(problem, std::move(sa.order), config_.weights, ls_evals / 2);
  accumulate_eval(seed_eval.stats());
  accumulate_eval(ls.eval);
  accumulate_eval(sa.eval);
  accumulate_eval(polished.eval);
  priority_.clear();
  for (const std::size_t idx : polished.order) priority_.push_back(problem.job(idx).id);
  last_thought_ = util::format("replan: SA portfolio over %zu jobs, objective %.1f",
                               problem.n_jobs(), polished.score);
  insertions_since_reopt_ = 0;
}

void OptimizingScheduler::insert_new_jobs(const ProblemView& problem) {
  std::set<sim::JobId> planned(priority_.begin(), priority_.end());
  std::vector<sim::JobId> new_ids;
  std::unordered_map<sim::JobId, std::size_t> index_of;
  index_of.reserve(problem.n_jobs());
  for (std::size_t i = 0; i < problem.n_jobs(); ++i) {
    index_of.emplace(problem.job(i).id, i);
    if (planned.count(problem.job(i).id) == 0) new_ids.push_back(problem.job(i).id);
  }
  if (new_ids.empty()) return;

  const auto resolve = [&](sim::JobId id) {
    const auto it = index_of.find(id);
    if (it == index_of.end()) throw std::logic_error("OptimizingScheduler: id not in problem");
    return it->second;
  };

  // Greedy best-position insertion of each newcomer into the priority list.
  // The evaluator caches the current plan's decode; each position probe
  // replays only from its insertion point with the incumbent best as the
  // cutoff. An aborted probe proves score >= best_score, which the old
  // full-decode sweep would have rejected anyway (strict <, earliest
  // position keeps ties), so the chosen positions are bit-identical.
  IncrementalEvaluator eval(problem, config_.weights);
  std::vector<std::size_t> base;
  base.reserve(priority_.size() + new_ids.size());
  for (const sim::JobId pid : priority_) base.push_back(resolve(pid));

  for (const sim::JobId id : new_ids) {
    const std::size_t new_idx = resolve(id);
    eval.score(base);

    double best_score = 0.0;
    std::size_t best_pos = 0;
    bool first = true;
    for (std::size_t pos = 0; pos <= base.size(); ++pos) {
      const double cutoff = first ? IncrementalEvaluator::kNoCutoff : best_score;
      const auto r = eval.score_insertion(pos, new_idx, cutoff, CutoffMode::kGreaterEqual);
      if (!r.exact) continue;
      if (first || r.value < best_score) {
        best_score = r.value;
        best_pos = pos;
        first = false;
      }
    }
    base.insert(base.begin() + static_cast<std::ptrdiff_t>(best_pos), new_idx);
    priority_.insert(priority_.begin() + static_cast<std::ptrdiff_t>(best_pos), id);
    ++insertions_since_reopt_;
  }
  accumulate_eval(eval.stats());
  if (insertions_since_reopt_ >= kReoptEvery) {
    full_replan(problem);
  }
}

sim::Action OptimizingScheduler::decide(const sim::DecisionContext& ctx) {
  if (ctx.waiting.empty()) {
    return ctx.arrivals_pending || !ctx.ineligible.empty() ? sim::Action::delay()
                                                           : sim::Action::stop();
  }
  const bool bounded = config_.window.select(ctx.waiting, window_scratch_);
  const ProblemView problem =
      ProblemView::from_context(ctx, bounded ? &window_scratch_ : nullptr);

  // Prune ids that left the (windowed) job set, then plan newcomers.
  std::set<sim::JobId> visible_ids;
  for (std::size_t i = 0; i < problem.n_jobs(); ++i) visible_ids.insert(problem.job(i).id);
  priority_.erase(std::remove_if(priority_.begin(), priority_.end(),
                                 [&](sim::JobId id) { return visible_ids.count(id) == 0; }),
                  priority_.end());
  if (priority_.empty()) {
    full_replan(problem);
  } else {
    insert_new_jobs(problem);
  }

  // Execute: start the highest-priority job that fits right now.
  for (const sim::JobId id : priority_) {
    for (std::size_t i = 0; i < problem.n_jobs(); ++i) {
      const sim::Job& j = problem.job(i);
      if (j.id == id && ctx.cluster.fits(j)) return sim::Action::start(id);
    }
  }
  return sim::Action::delay();
}

}  // namespace reasched::opt
