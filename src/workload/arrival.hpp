#pragma once

#include <vector>

#include "sim/job.hpp"
#include "util/rng.hpp"

namespace reasched::workload {

/// Poisson submission process (Section 3.1): exponential interarrivals with
/// the given mean; the first job arrives at t=0 so every run starts with
/// work available.
void assign_poisson_arrivals(std::vector<sim::Job>& jobs, double mean_interarrival,
                             util::Rng& rng);

/// All jobs submitted simultaneously at t=0 (the static formulation of
/// Section 3.3, s_j = 0 for all j).
void assign_static_arrivals(std::vector<sim::Job>& jobs);

/// Bursts of `burst_size` jobs with `within_burst` mean spacing, separated
/// by `idle_gap` mean idle periods - the Bursty + Idle pattern.
void assign_bursty_arrivals(std::vector<sim::Job>& jobs, std::size_t burst_size,
                            double within_burst, double idle_gap, util::Rng& rng);

}  // namespace reasched::workload
