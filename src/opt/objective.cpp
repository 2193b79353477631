#include "opt/objective.hpp"

namespace reasched::opt {

double evaluate(const PlannedSchedule& plan, const ObjectiveWeights& weights) {
  return plan.makespan + weights.wait_weight * plan.total_wait;
}

}  // namespace reasched::opt
