#include "workload/polaris.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "workload/users.hpp"

namespace reasched::workload {

namespace {

constexpr int kUsers = 20;
constexpr int kGroups = 6;
constexpr double kEpochStart = 1730419200.0;  ///< Nov 1 2024 00:00:00 UTC
constexpr double kFailedFraction = 0.08;     ///< raw rows marked EXIT_STATUS -1

const std::vector<std::string> kRawHeader = {
    "JOB_NAME",        "USER",
    "GROUP",           "SUBMIT_TIMESTAMP",
    "START_TIMESTAMP", "END_TIMESTAMP",
    "NODES_REQUESTED", "WALLTIME_SECONDS",
    "QUEUED_WAIT_SECONDS", "EXIT_STATUS"};

int draw_polaris_nodes(util::Rng& rng) {
  // Power-of-two-biased node counts observed on leadership-class machines;
  // capped by the 560-node Polaris partition. Wide jobs carry enough weight
  // that the partition saturates during busy periods.
  static const int kChoices[] = {1, 2, 4, 8, 10, 16, 32, 64, 128, 256, 496};
  static const std::vector<double> kWeights = {16, 13, 12, 11, 8, 10, 10, 9, 6, 4, 1};
  return kChoices[rng.weighted_index(kWeights)];
}

}  // namespace

util::CsvTable generate_polaris_raw_trace(const PolarisTraceConfig& config, std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, "polaris-trace"));
  util::CsvTable t(kRawHeader);

  const auto user_weights = zipf_weights(kUsers, 1.0);
  double submit = kEpochStart;
  for (std::size_t i = 0; i < config.n_jobs; ++i) {
    const int user = static_cast<int>(rng.weighted_index(user_weights)) + 1;
    const int group = (user - 1) % kGroups + 1;
    const int nodes = draw_polaris_nodes(rng);
    // Runtime: heavy-tailed log-normal, 1 minute to 24 hours.
    const double runtime = std::clamp(rng.lognormal(std::log(1800.0), 1.2), 60.0, 86400.0);
    // Users over-request walltime by 5%-300%.
    const double walltime = runtime * rng.uniform_real(1.05, 3.0);
    const double wait = rng.exponential(600.0);
    const bool failed = rng.bernoulli(kFailedFraction);

    const double start = submit + wait;
    // Failed jobs die early - a fraction of their requested time.
    const double end = start + (failed ? runtime * rng.uniform_real(0.01, 0.5) : runtime);

    t.add_row({util::format("job_%zu", i + 1), util::format("polaris_user_%02d", user),
               util::format("alloc_group_%d", group), util::format("%.0f", submit),
               util::format("%.0f", start), util::format("%.0f", end), std::to_string(nodes),
               util::format("%.0f", walltime), util::format("%.0f", wait),
               failed ? "-1" : "0"});

    submit += rng.exponential(config.mean_interarrival_s);
  }
  return t;
}

std::vector<sim::Job> preprocess_polaris_trace(const util::CsvTable& raw, std::size_t max_jobs) {
  struct Row {
    double submit, start, end, walltime;
    int nodes;
    std::string user, group;
  };
  std::vector<Row> rows;
  rows.reserve(raw.rows());
  for (std::size_t i = 0; i < raw.rows(); ++i) {
    // The paper filters failed jobs (EXIT_STATUS == -1) before everything.
    const auto status = util::parse_int(raw.cell(i, "EXIT_STATUS"));
    if (!status || *status == -1) continue;
    Row r;
    auto num = [&](const char* col) {
      const auto v = util::parse_double(raw.cell(i, col));
      if (!v) throw std::runtime_error(util::format("polaris trace row %zu: bad %s", i, col));
      return *v;
    };
    r.submit = num("SUBMIT_TIMESTAMP");
    r.start = num("START_TIMESTAMP");
    r.end = num("END_TIMESTAMP");
    r.walltime = num("WALLTIME_SECONDS");
    r.nodes = static_cast<int>(num("NODES_REQUESTED"));
    r.user = raw.cell(i, "USER");
    r.group = raw.cell(i, "GROUP");
    if (r.end <= r.start || r.nodes < 1) continue;  // malformed rows dropped
    rows.push_back(std::move(r));
  }
  // Keyed on submit alone, so ties (same-second submissions) must keep raw
  // row order for the assigned JobIds to be deterministic - same fix as
  // parse_swf.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.submit < b.submit;
  });
  if (rows.size() > max_jobs) rows.resize(max_jobs);  // contiguous completed segment
  if (rows.empty()) return {};

  const double t0 = rows.front().submit;  // normalize relative to earliest submission
  std::map<std::string, int> user_ids, group_ids;
  std::vector<sim::Job> jobs;
  jobs.reserve(rows.size());
  const sim::ClusterSpec polaris = sim::ClusterSpec::polaris();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    sim::Job j;
    j.id = static_cast<sim::JobId>(i + 1);
    j.user = user_ids.emplace(r.user, static_cast<int>(user_ids.size()) + 1).first->second;
    j.group = group_ids.emplace(r.group, static_cast<int>(group_ids.size()) + 1).first->second;
    j.submit_time = r.submit - t0;
    j.duration = r.end - r.start;
    j.walltime = std::max(r.walltime, j.duration);
    j.nodes = std::min(r.nodes, polaris.total_nodes);
    j.memory_gb = static_cast<double>(j.nodes) * 512.0;  // 512 GB per Polaris node
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<sim::Job> polaris_jobs(std::size_t n_jobs, std::uint64_t seed) {
  PolarisTraceConfig config;
  // Generate enough raw rows that the post-filter count reaches n_jobs.
  config.n_jobs = n_jobs + n_jobs / 2 + 20;
  const auto raw = generate_polaris_raw_trace(config, seed);
  auto jobs = preprocess_polaris_trace(raw, n_jobs);
  if (jobs.size() < n_jobs) {
    throw std::runtime_error("polaris_jobs: generated trace too small after filtering");
  }
  return jobs;
}

}  // namespace reasched::workload
