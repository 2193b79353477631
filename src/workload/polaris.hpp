#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "util/csv.hpp"

namespace reasched::workload {

/// Substitute for the proprietary Polaris (ALCF) November-2024 job-history
/// logs used in paper Section 5. We cannot ship the real trace, so this
/// module provides (a) a statistically Polaris-like raw-trace generator in
/// the shape of the public job-history logs, and (b) the paper's exact
/// preprocessing pipeline, which also accepts a real trace CSV if one is
/// available. See ARCHITECTURE.md "Substitutions" for the fidelity argument.
///
/// Raw-trace columns:
///   JOB_NAME, USER, GROUP, SUBMIT_TIMESTAMP, START_TIMESTAMP,
///   END_TIMESTAMP, NODES_REQUESTED, WALLTIME_SECONDS, QUEUED_WAIT_SECONDS,
///   EXIT_STATUS
/// Timestamps are Unix epoch seconds. EXIT_STATUS -1 marks failed jobs
/// (filtered by preprocessing, as in the paper).
struct PolarisTraceConfig {
  std::size_t n_jobs = 140;  ///< raw rows; ~8% fail and are filtered out
  double failed_fraction = 0.08;
  /// Busy-period submission rate; produces the queueing contention that
  /// makes the Figure 8 comparison non-trivial (an idle-at-zero cluster
  /// absorbs sparse arrivals with zero waits for every scheduler).
  double mean_interarrival_s = 180.0;
  int n_users = 20;
  int n_groups = 6;
  /// Nov 1 2024 00:00:00 UTC.
  std::int64_t epoch_start = 1730419200;
};

/// Generate a raw Polaris-like trace (deterministic in `seed`).
util::CsvTable generate_polaris_raw_trace(const PolarisTraceConfig& config, std::uint64_t seed);

/// The paper's preprocessing (Section 5): drop EXIT_STATUS == -1, sort by
/// submission, keep the first `max_jobs` completed jobs, normalize
/// timestamps relative to the earliest submission, factorize user/group
/// to anonymous ids, take node count as-is and derive memory as
/// nodes x 512 GB. Durations come from START/END (actual runtime); the
/// requested WALLTIME_SECONDS is preserved as the scheduler-visible
/// estimate.
std::vector<sim::Job> preprocess_polaris_trace(const util::CsvTable& raw, std::size_t max_jobs);

/// Convenience: generate + preprocess `n_jobs` ready-to-simulate jobs.
std::vector<sim::Job> polaris_jobs(std::size_t n_jobs, std::uint64_t seed);

}  // namespace reasched::workload
