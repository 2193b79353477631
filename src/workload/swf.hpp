#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/job.hpp"

namespace reasched::workload {

/// Standard Workload Format (SWF) support - the format of the Parallel
/// Workloads Archive, the standard source of public HPC traces. Lets this
/// library replay real production logs (e.g. ANL Intrepid, KIT FH2) through
/// the same pipeline as the synthetic scenarios and the Polaris substrate.
///
/// SWF records are 18 whitespace-separated fields per line; ';' starts a
/// comment. Field mapping used here (1-based SWF indices):
///   2 submit time [s]        -> Job::submit_time
///   4 run time [s]           -> Job::duration
///   8 requested processors   -> Job::nodes (fallback: field 5, allocated)
///  10 requested memory [KB/proc] -> Job::memory_gb (fallback: default/node)
///   9 requested time [s]     -> Job::walltime (fallback: run time)
///  11 status                 -> completed filter (1 = completed)
///  12 user id, 13 group id   -> Job::user / Job::group (factorized)
struct SwfOptions {
  /// Keep only completed jobs (SWF status == 1), like the paper's Polaris
  /// preprocessing drops failed jobs.
  bool completed_only = true;
  /// Memory per node when the trace reports none (-1), in GB.
  double default_memory_gb_per_node = 4.0;
  /// Clamp node requests to this cluster width (0 = no clamp).
  int max_nodes = 0;
};

/// Parse SWF text into jobs (ids renumbered 1..n, users/groups factorized,
/// submit times normalized so the earliest is 0). Malformed lines throw.
std::vector<sim::Job> parse_swf(std::string_view text, const SwfOptions& options = {});

std::vector<sim::Job> load_swf(const std::string& path, const SwfOptions& options = {});

/// Serialize jobs to SWF (inverse mapping; unknown fields written as -1).
std::string jobs_to_swf(const std::vector<sim::Job>& jobs);
void save_swf(const std::vector<sim::Job>& jobs, const std::string& path);

}  // namespace reasched::workload
