#include "workload/arrival.hpp"

namespace reasched::workload {

void assign_poisson_arrivals(std::vector<sim::Job>& jobs, double mean_interarrival,
                             util::Rng& rng) {
  double t = 0.0;
  for (auto& job : jobs) {
    job.submit_time = t;
    t += rng.exponential(mean_interarrival);
  }
}

void assign_static_arrivals(std::vector<sim::Job>& jobs) {
  for (auto& job : jobs) job.submit_time = 0.0;
}

void assign_bursty_arrivals(std::vector<sim::Job>& jobs, std::size_t burst_size,
                            double within_burst, double idle_gap, util::Rng& rng) {
  double t = 0.0;
  std::size_t in_burst = 0;
  for (auto& job : jobs) {
    job.submit_time = t;
    ++in_burst;
    if (in_burst >= burst_size) {
      in_burst = 0;
      t += idle_gap + rng.exponential(idle_gap * 0.5);
    } else {
      t += rng.exponential(within_burst);
    }
  }
}

}  // namespace reasched::workload
