#pragma once

#include <string>

#include "sim/cluster.hpp"
#include "sim/schedule_result.hpp"

namespace reasched::metrics {

/// ASCII Gantt / utilization view of a finished schedule: one row per job
/// (start..end as a bar over a 72-character time axis, '.' while queued,
/// '#' while running; at most 40 rows, the largest jobs beyond that) plus a
/// node-utilization sparkline (0-9 scaled node usage per bucket). Makes
/// convoy effects and packing quality visible at a glance in terminals and
/// docs - the qualitative story behind Figures 3-4.
std::string render_gantt(const sim::ScheduleResult& result, const sim::ClusterSpec& spec);

}  // namespace reasched::metrics
