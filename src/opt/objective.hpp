#pragma once

#include "opt/model.hpp"
#include "sim/event.hpp"

namespace reasched::opt {

/// Scalarized objective for the optimization baseline: makespan plus
/// `wait_weight` times the summed wait. The default mirrors the paper's
/// OR-Tools configuration: *pure makespan*. Because no term penalizes wait
/// times or wait variance, the search freely reorders and postpones
/// individual jobs whenever that helps packing - which is exactly the
/// paper's observed OR-Tools signature: top utilization and throughput,
/// degraded wait/turnaround and fairness at scale.
///
/// `wait_weight` > 0 is the ablation knob (the `ablation_policy_weights`
/// row of bench/repro) showing how a fairness term trades utilization
/// away. It must be nonnegative: IncrementalEvaluator refuses a negative
/// or NaN weight, since its cutoff bound rests on every term growing
/// monotonically as the decode proceeds.
struct ObjectiveWeights {
  double wait_weight = 0.0;
};

double evaluate(const PlannedSchedule& plan, const ObjectiveWeights& weights);

/// Solver-side "candidate strictly beats incumbent" under the relative
/// tolerance convention of sim::tol_leq (PR 2). Replaces the absolute
/// `score + 1e-12 < incumbent` epsilons: at Polaris makespans (~1e7 s) one
/// ulp is already ~2e-9, so an absolute 1e-12 margin degenerates to a raw
/// `<` that accepts float-noise "improvements" and churns the incumbent.
inline bool improves(double candidate, double incumbent) {
  return !sim::tol_leq(incumbent, candidate);
}

}  // namespace reasched::opt
