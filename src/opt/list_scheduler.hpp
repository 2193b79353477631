#pragma once

#include <vector>

#include "opt/model.hpp"

namespace reasched::opt {

/// Fast serial list-schedule decoder: place jobs in permutation order, each
/// starting no earlier than its predecessor, advancing a completion heap
/// when resources are insufficient. O(n log n) per evaluation, which is what
/// makes simulated annealing affordable inside the replanning loop.
///
/// The search space is "all list schedules" - the same space OR-Tools-style
/// CP models effectively explore for cumulative scheduling when decoding
/// rank variables. branch_and_bound.cpp proves optimality within this space
/// on small instances (verified against brute force in tests).
///
/// `order` indexes into the view's job set (0..n_jobs-1). Jobs are never
/// started before max(problem.now(), job.submit_time).
PlannedSchedule decode_order(const ProblemView& problem, const std::vector<std::size_t>& order);

/// Decode only the listed jobs (a prefix or subset of the view's job set),
/// in the given order, against the same pinned resources. This is what
/// branch-and-bound uses to cost a placed prefix without materializing a
/// sub-Problem per node.
PlannedSchedule decode_subset(const ProblemView& problem, const std::vector<std::size_t>& order);

/// Common seed orderings for the metaheuristics.
std::vector<std::size_t> order_by_arrival(const ProblemView& problem);
std::vector<std::size_t> order_spt(const ProblemView& problem);    ///< shortest walltime first
std::vector<std::size_t> order_lpt(const ProblemView& problem);    ///< longest walltime first
std::vector<std::size_t> order_widest(const ProblemView& problem); ///< most nodes first

}  // namespace reasched::opt
