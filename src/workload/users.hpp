#pragma once

#include <vector>

#include "sim/job.hpp"
#include "util/rng.hpp"

namespace reasched::workload {

/// Assigns user / group metadata to generated jobs. Real HPC traces show a
/// heavy-tailed activity distribution (a few power users submit most jobs),
/// which we model with Zipf-like weights (exponent 0.8) over 8 users in 3
/// groups - this is what makes the per-user Jain fairness objective
/// (Section 3.2) non-trivial.
void assign_users(std::vector<sim::Job>& jobs, util::Rng& rng);

/// Zipf weight vector w_i = 1/(i+1)^s, i in [0, n).
std::vector<double> zipf_weights(int n, double s);

}  // namespace reasched::workload
