#include "metrics/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/string_utils.hpp"

namespace reasched::metrics {

namespace {
constexpr std::size_t kWidth = 72;    ///< characters across the time axis
constexpr std::size_t kMaxRows = 40;  ///< cap on job rows (largest-first beyond it)

struct Horizon {
  double t0 = 0.0;
  double t1 = 0.0;
  bool ok = false;
};

Horizon schedule_horizon(const sim::ScheduleResult& result) {
  Horizon h;
  if (result.completed.empty()) return h;
  h.t0 = result.completed.front().job.submit_time;
  for (const auto& c : result.completed) {
    h.t0 = std::min(h.t0, c.job.submit_time);
    h.t1 = std::max(h.t1, c.end_time);
  }
  h.ok = h.t1 > h.t0;
  return h;
}

std::size_t bucket_of(double t, const Horizon& h) {
  const double frac = (t - h.t0) / (h.t1 - h.t0);
  const auto b = static_cast<std::ptrdiff_t>(frac * static_cast<double>(kWidth));
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      b, 0, static_cast<std::ptrdiff_t>(kWidth) - 1));
}

/// The utilization sparkline row: 0-9 scaled node usage per bucket.
std::string render_utilization_profile(const sim::ScheduleResult& result,
                                       const sim::ClusterSpec& spec, const Horizon& h) {
  std::vector<double> node_seconds(kWidth, 0.0);
  const double bucket_span = (h.t1 - h.t0) / static_cast<double>(kWidth);
  for (const auto& c : result.completed) {
    for (std::size_t b = bucket_of(c.start_time, h); b <= bucket_of(c.end_time - 1e-9, h);
         ++b) {
      const double bucket_start = h.t0 + static_cast<double>(b) * bucket_span;
      const double overlap = std::max(
          0.0, std::min(c.end_time, bucket_start + bucket_span) - std::max(c.start_time,
                                                                           bucket_start));
      node_seconds[b] += overlap * c.job.nodes;
    }
  }
  std::string line;
  line.reserve(kWidth);
  for (const double ns : node_seconds) {
    const double util = ns / (bucket_span * spec.total_nodes);
    const int level = std::clamp(static_cast<int>(std::floor(util * 10.0)), 0, 9);
    line += static_cast<char>('0' + level);
  }
  return line;
}
}  // namespace

std::string render_gantt(const sim::ScheduleResult& result, const sim::ClusterSpec& spec) {
  const Horizon h = schedule_horizon(result);
  if (!h.ok) return "(empty schedule)\n";

  // Rows sorted by start time; if over the cap, keep the widest jobs.
  std::vector<const sim::CompletedJob*> rows;
  rows.reserve(result.completed.size());
  for (const auto& c : result.completed) rows.push_back(&c);
  // total-order: start-time ties broken by unique JobId.
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->start_time != b->start_time) return a->start_time < b->start_time;
    return a->job.id < b->job.id;
  });
  if (rows.size() > kMaxRows) {
    std::nth_element(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(kMaxRows),
                     rows.end(), [](const auto* a, const auto* b) {
                       return a->job.node_seconds() > b->job.node_seconds();
                     });
    rows.resize(kMaxRows);
    // total-order: start-time ties broken by unique JobId (without the tiebreak
    // this re-sort ordered tied rows by whatever permutation nth_element left).
    std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      if (a->start_time != b->start_time) return a->start_time < b->start_time;
      return a->job.id < b->job.id;
    });
  }

  std::ostringstream os;
  os << util::format("Gantt: %zu job(s), t=[%.0f, %.0f]s, %d nodes\n",
                     result.completed.size(), h.t0, h.t1, spec.total_nodes);
  for (const auto* c : rows) {
    std::string bar(kWidth, ' ');
    const std::size_t qs = bucket_of(c->job.submit_time, h);
    const std::size_t s = bucket_of(c->start_time, h);
    const std::size_t e = bucket_of(std::max(c->end_time - 1e-9, c->start_time), h);
    for (std::size_t b = qs; b < s; ++b) bar[b] = '.';
    for (std::size_t b = s; b <= e; ++b) bar[b] = '#';
    os << util::format("J%-4d %3dn |%s|\n", c->job.id, c->job.nodes, bar.c_str());
  }
  os << util::format("util (0-9)  |%s|\n",
                     render_utilization_profile(result, spec, h).c_str());
  return os.str();
}

}  // namespace reasched::metrics
