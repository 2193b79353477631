#include "workload/users.hpp"

#include <cmath>

namespace reasched::workload {

std::vector<double> zipf_weights(int n, double s) {
  std::vector<double> w;
  w.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w.push_back(1.0 / std::pow(static_cast<double>(i + 1), s));
  }
  return w;
}

void assign_users(std::vector<sim::Job>& jobs, util::Rng& rng) {
  constexpr int kUsers = 8;
  constexpr int kGroups = 3;
  constexpr double kZipfExponent = 0.8;
  const auto weights = zipf_weights(kUsers, kZipfExponent);
  for (auto& job : jobs) {
    job.user = static_cast<sim::UserId>(rng.weighted_index(weights)) + 1;
    job.group = static_cast<sim::GroupId>((job.user - 1) % kGroups) + 1;
  }
}

}  // namespace reasched::workload
