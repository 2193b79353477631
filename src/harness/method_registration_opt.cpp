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

}  // namespace

void register_methods(harness::MethodRegistry& registry) {
  const OptimizingSchedulerConfig defaults;
  registry.add(
      {.name = "opt:portfolio",
       .display_label = "OR-Tools*",
       .doc = "Optimization baseline (OR-Tools substitute): exact B&B for small queues, "
              "seeds + local search + SA above.",
       .is_llm = false,
       .params =
           {{"budget", "int", std::to_string(defaults.sa.iterations),
             "Simulated-annealing iterations per full replan."},
            {"ls_evals", "int", std::to_string(defaults.local_search_evals),
             "Local-search evaluations per full replan."},
            {"bnb_threshold", "int", std::to_string(defaults.bnb_threshold),
             "Largest queue planned exactly by branch-and-bound."},
            {"reopt_every", "int", std::to_string(defaults.reopt_every),
             "Greedy arrival insertions between full re-optimizations."},
            {"window", "window", harness::window_to_string(sim::PlanningWindow{}),
             "Planning window K|order:K|auto (orders: arrival, sjf); 0 = unbounded paper "
             "semantics, auto = sjf:64, the trace-scale default."},
            {"incremental", "bool", "1",
             "Incremental candidate evaluation with bound cutoffs across the solver "
             "portfolio; 0 restores the naive full-decode pipeline (bit-identical "
             "decisions, reference speed)."},
            {"xcheck", "bool", "0",
             "Differential oracle: re-evaluate every incremental score through the full "
             "pipeline and abort on any divergence (slow; for validation)."}},
       .build =
           [](const harness::MethodSpec& spec, std::uint64_t seed) {
             const harness::ParamReader params(spec);
             OptimizingSchedulerConfig config;
             config.seed = seed;
             config.sa.iterations = static_cast<std::size_t>(
                 params.get_int("budget", static_cast<long long>(config.sa.iterations)));
             config.local_search_evals = static_cast<std::size_t>(params.get_int(
                 "ls_evals", static_cast<long long>(config.local_search_evals)));
             config.bnb_threshold = static_cast<std::size_t>(params.get_int(
                 "bnb_threshold", static_cast<long long>(config.bnb_threshold)));
             config.reopt_every = static_cast<std::size_t>(params.get_int(
                 "reopt_every", static_cast<long long>(config.reopt_every), 1));
             config.window = params.get_window("window", trace_default_window());
             config.eval.incremental = params.get_bool("incremental", true);
             config.eval.cross_check = params.get_bool("xcheck", false);
             return std::make_unique<OptimizingScheduler>(config);
           }});
}

}  // namespace reasched::opt
