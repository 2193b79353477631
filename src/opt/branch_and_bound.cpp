#include "opt/branch_and_bound.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "opt/list_scheduler.hpp"

namespace reasched::opt {

namespace {

/// Children per node visited in best-bound-first order. Beyond this the
/// branching factor exceeds any realistic node budget, so only the best
/// kSortCap children are yielded by bound (under the total (bound, index)
/// order, which makes the chosen set unique and deterministic); the tail
/// keeps ascending index order and is reached only if every promising child
/// dies.
constexpr std::size_t kSortCap = 256;

struct Search {
  const ProblemView& problem;
  const BnbConfig& config;
  IncrementalEvaluator eval;
  BnbResult result;
  std::vector<std::size_t> prefix;
  std::vector<bool> used;
  bool budget_exhausted = false;

  /// Per-job bound ingredients, resolved once; the per-node remaining-work
  /// sums are threaded through dfs() as arguments so backtracking restores
  /// them exactly (no fragile subtract-then-re-add drift).
  std::vector<double> node_area, mem_area, completion_lb;
  double cp_global = 0.0;  ///< max over *all* jobs of release + duration -
                           ///< admissible even when some are placed (each
                           ///< placed job's end is itself >= its term)
  /// child_bound runs twice per unused job per node - two integer divides
  /// there dominated node expansion at large n. The reciprocals shift each
  /// bound by at most an ulp; both evaluation modes share this code, so the
  /// search tree stays mode-invariant.
  double now_cached = 0.0;
  double inv_nodes = 0.0;
  double inv_mem = 0.0;
  /// Equivalence classes of interchangeable jobs (identical duration/nodes/
  /// memory/submit); dominance branches only on the lowest-index unused
  /// member per class, stamped in O(1) per candidate per node.
  std::vector<std::size_t> class_id;
  std::vector<std::size_t> class_seen;
  std::size_t epoch = 0;

  Search(const ProblemView& p, const ObjectiveWeights& w, const BnbConfig& c)
      : problem(p), config(c), eval(p, w, c.eval) {
    const std::size_t n = p.n_jobs();
    now_cached = p.now();
    if (p.total_nodes() > 0) inv_nodes = 1.0 / static_cast<double>(p.total_nodes());
    if (p.total_memory_gb() > 0.0) inv_mem = 1.0 / p.total_memory_gb();
    used.assign(n, false);
    node_area.resize(n);
    mem_area.resize(n);
    completion_lb.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const sim::Job& j = p.job(i);
      node_area[i] = static_cast<double>(j.nodes) * j.duration;
      mem_area[i] = j.memory_gb * j.duration;
      completion_lb[i] = std::max(p.now(), j.submit_time) + j.duration;
      cp_global = std::max(cp_global, completion_lb[i]);
    }
    std::vector<std::size_t> by_attrs(n);
    std::iota(by_attrs.begin(), by_attrs.end(), std::size_t{0});
    const auto attrs_less = [&](std::size_t a, std::size_t b) {
      const sim::Job& x = p.job(a);
      const sim::Job& y = p.job(b);
      if (x.duration != y.duration) return x.duration < y.duration;
      if (x.nodes != y.nodes) return x.nodes < y.nodes;
      if (x.memory_gb != y.memory_gb) return x.memory_gb < y.memory_gb;
      if (x.submit_time != y.submit_time) return x.submit_time < y.submit_time;
      return a < b;
    };
    const auto attrs_equal = [&](std::size_t a, std::size_t b) {
      const sim::Job& x = p.job(a);
      const sim::Job& y = p.job(b);
      return x.duration == y.duration && x.nodes == y.nodes && x.memory_gb == y.memory_gb &&
             x.submit_time == y.submit_time;
    };
    // total-order: attrs_less falls through to the unique problem index.
    std::sort(by_attrs.begin(), by_attrs.end(), attrs_less);
    class_id.resize(n);
    std::size_t classes = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || !attrs_equal(by_attrs[k], by_attrs[k - 1])) ++classes;
      class_id[by_attrs[k]] = classes - 1;
    }
    class_seen.assign(classes, 0);
  }

  /// Admissible lower bound from this prefix: max of the prefix's own
  /// makespan, the node/memory area bounds for the remaining work, and the
  /// global critical path. The wait term is left out: it is nonnegative, so
  /// the bound stays admissible.
  double lower_bound(double prefix_makespan, double rem_node_area, double rem_mem_area) const {
    double lb = std::max(prefix_makespan, now_cached + rem_node_area * inv_nodes);
    if (inv_mem > 0.0) lb = std::max(lb, now_cached + rem_mem_area * inv_mem);
    return std::max(lb, cp_global);
  }

  /// Cheap optimistic bound for ordering the children of a node: placing i
  /// next, nothing finishes before i's own release + duration, nor faster
  /// than the remaining work (minus i) can drain on the whole machine.
  double child_bound(std::size_t i, double rem_node_area, double rem_mem_area) const {
    double b = completion_lb[i];
    b = std::max(b, now_cached + (rem_node_area - node_area[i]) * inv_nodes);
    if (inv_mem > 0.0) {
      b = std::max(b, now_cached + (rem_mem_area - mem_area[i]) * inv_mem);
    }
    return b;
  }

  void dfs(double rem_node_area, double rem_mem_area) {
    if (result.explored >= config.max_nodes) {
      budget_exhausted = true;
      return;
    }
    ++result.explored;

    if (prefix.size() == problem.n_jobs()) {
      const double score = eval.score(prefix);
      if (score < result.score) {
        result.score = score;
        result.order = prefix;
      }
      return;
    }

    // Prefix contribution: the evaluator re-decodes only from where this
    // prefix diverges from the previously cached one (one position per
    // descent step) instead of the whole prefix per node. The naive mode
    // decodes in full - both produce bit-identical accumulators, so the
    // bound values and hence the search tree are identical.
    double prefix_makespan;
    if (config.eval.incremental) {
      eval.score(prefix);
      prefix_makespan = eval.cached_accumulators().makespan;
    } else {
      prefix_makespan = decode_subset(problem, prefix).makespan;
    }
    if (!improves(lower_bound(prefix_makespan, rem_node_area, rem_mem_area), result.score)) {
      ++result.pruned;
      return;
    }

    // Children are yielded lazily in ascending (bound, index) order, one
    // O(candidates) min-scan per yield. Eagerly materializing and sorting
    // the full child list per node - the previous implementation - was the
    // dominant cost of the whole search at large n: with max_nodes far below
    // the branching factor, a node's first child usually exhausts the budget
    // and the other ~n sorted entries are thrown away. The scan reproduces
    // the sorted sequence exactly: the k-th yield is the k-th smallest under
    // the same strict (bound, index) total order, and after kSortCap yields
    // it switches to the same ascending-index tail the sort-capped path
    // produced (reached only if every promising child dies).
    //
    // Dominance is stamped per scan (epoch'd visit marks): a job's class is
    // skipped if a lower-indexed unused member was seen earlier in this
    // scan. used[] is identical at every scan of one node, so each scan
    // sees the same candidate set the eager enumeration saw.
    struct Child {
      double bound;
      std::size_t index;
    };
    const auto by_bound = [](const Child& x, const Child& y) {
      if (x.bound != y.bound) return x.bound < y.bound;
      return x.index < y.index;
    };
    const std::size_t n = problem.n_jobs();
    Child last_yield{-std::numeric_limits<double>::infinity(), 0};
    Child pivot_tail{0.0, 0};   // valid once yields == kSortCap
    std::size_t tail_min = 0;   // tail resume cursor (tail indices ascend)
    for (std::size_t yields = 0;; ++yields) {
      Child next{std::numeric_limits<double>::infinity(),
                 std::numeric_limits<std::size_t>::max()};
      bool found = false;
      if (yields < kSortCap) {
        // Min scan: smallest (bound, index) strictly above the last yield.
        ++epoch;
        for (std::size_t i = 0; i < n; ++i) {
          if (used[i]) continue;
          if (class_seen[class_id[i]] == epoch) continue;  // dominated duplicate
          class_seen[class_id[i]] = epoch;
          const Child c{child_bound(i, rem_node_area, rem_mem_area), i};
          if (by_bound(last_yield, c) && by_bound(c, next)) {
            next = c;
            found = true;
          }
        }
        if (found && yields + 1 == kSortCap) pivot_tail = next;
      } else {
        // Tail: ascending index order, restricted to children strictly
        // above the kSortCap-th yield in the total order. Tail yields have
        // strictly ascending indices, so the cursor excludes exactly the
        // already-yielded ones (head yields are excluded by the pivot test:
        // they are <= pivot). The scan still starts at 0 because dominance
        // representatives (lowest unused index per class) must be stamped
        // even when they sit below the cursor.
        ++epoch;
        for (std::size_t i = 0; i < n; ++i) {
          if (used[i]) continue;
          if (class_seen[class_id[i]] == epoch) continue;
          class_seen[class_id[i]] = epoch;
          if (i < tail_min) continue;
          const Child c{child_bound(i, rem_node_area, rem_mem_area), i};
          if (by_bound(pivot_tail, c)) {
            next = c;
            tail_min = i + 1;
            found = true;
            break;
          }
        }
      }
      if (!found) break;
      last_yield = next;
      const std::size_t i = next.index;
      used[i] = true;
      prefix.push_back(i);
      dfs(rem_node_area - node_area[i], rem_mem_area - mem_area[i]);
      prefix.pop_back();
      used[i] = false;
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

BnbResult branch_and_bound(const ProblemView& problem, const ObjectiveWeights& weights,
                           const BnbConfig& config) {
  Search search(problem, weights, config);

  // Incumbent: best of the standard seed orderings.
  BnbResult& result = search.result;
  result.order = order_spt(problem);
  result.score = search.eval.score(result.order);
  for (const auto& seed : {order_by_arrival(problem), order_lpt(problem), order_widest(problem)}) {
    const double s = search.eval.score(seed);
    if (s < result.score) {
      result.score = s;
      result.order = seed;
    }
  }

  double all_node_area = 0.0;
  double all_mem_area = 0.0;
  for (std::size_t i = 0; i < problem.n_jobs(); ++i) {
    all_node_area += search.node_area[i];
    all_mem_area += search.mem_area[i];
  }
  search.dfs(all_node_area, all_mem_area);
  result.proven_optimal = !search.budget_exhausted;
  return result;
}

}  // namespace reasched::opt
