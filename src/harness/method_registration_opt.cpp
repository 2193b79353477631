#include "harness/method_registration.hpp"

#include "harness/method_spec.hpp"
#include "opt/optimizing_scheduler.hpp"

namespace reasched::opt {

namespace {

/// Trace-scale-safe window for `window=auto`: top-64 by sjf_order, the
/// configuration bench/micro_opt_scaling gates (>200x decisions/sec over the
/// unbounded path at 10k waiting jobs with no measurable plan-quality loss
/// at bench budgets). The registered *default* stays unbounded (top_k = 0)
/// so the canonical paper panel keeps its recorded results bit-identical.
sim::PlanningWindow trace_default_window() {
  sim::PlanningWindow w;
  w.top_k = 64;
  w.order = sim::PlanningWindow::Order::kShortestFirst;
  return w;
}

/// Upper bound on `budget` and `ls_evals`: 250x the largest default, far
/// above every in-tree spec, yet small enough that one replan cannot run
/// for hours.
constexpr long long kMaxSolverEvals = 1'000'000;

/// A solver evaluation count read from `key`, in [0, kMaxSolverEvals].
std::size_t solver_evals(const harness::ParamReader& params, const std::string& key,
                         std::size_t fallback) {
  const auto fallback_ll = static_cast<long long>(fallback);
  return static_cast<std::size_t>(params.get_int(key, fallback_ll, 0, kMaxSolverEvals));
}

}  // namespace

void register_methods(harness::MethodRegistry& registry) {
  const OptimizingSchedulerConfig defaults;
  registry.add(
      {.name = "opt:portfolio",
       .display_label = "OR-Tools*",
       .doc = "Optimization baseline (OR-Tools substitute): exact B&B for small queues, "
              "seeds + local search + SA above.",
       .params =
           {{"budget", "int", std::to_string(defaults.sa.iterations),
             "Simulated-annealing iterations per full replan."},
            {"ls_evals", "int", std::to_string(defaults.local_search_evals),
             "Local-search evaluations per full replan."},
            {"window", "window", harness::window_to_string(sim::PlanningWindow{}),
             "Planning window K|order:K|auto (orders: arrival, sjf); 0 = unbounded paper "
             "semantics, auto = sjf:64, the trace-scale default."}},
       .build =
           [](const harness::MethodSpec& spec, std::uint64_t seed) {
             const harness::ParamReader params(spec);
             OptimizingSchedulerConfig config;
             config.seed = seed;
             config.sa.iterations = solver_evals(params, "budget", config.sa.iterations);
             config.local_search_evals =
                 solver_evals(params, "ls_evals", config.local_search_evals);
             config.window = params.get_window("window", trace_default_window());
             return std::make_unique<OptimizingScheduler>(config);
           }});
}

}  // namespace reasched::opt
