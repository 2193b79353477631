#pragma once

// Pinned-digest helpers for the behaviour-preservation goldens. A digest is
// util::hash_str (FNV-1a) over the raw bytes of every field the goldens
// compare - doubles by bit pattern - so one 64-bit constant pins a whole
// job vector or RunOutcome bit for bit. A refactor that changes any draw,
// seed derivation or decision changes the digest.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"
#include "sim/job.hpp"
#include "util/rng.hpp"

namespace reasched::testing {

class DigestBytes {
 public:
  template <typename T>
  void add(const T& value) {
    char raw[sizeof value];
    std::memcpy(raw, &value, sizeof value);
    bytes_.append(raw, sizeof value);
  }
  void add_string(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes_ += s;
  }
  void add_job(const sim::Job& j) {
    add(j.id);
    add(j.user);
    add(j.group);
    add(j.submit_time);
    add(j.duration);
    add(j.walltime);
    add(j.nodes);
    add(j.memory_gb);
    add(static_cast<std::uint64_t>(j.dependencies.size()));
    for (const auto dep : j.dependencies) add(dep);
  }
  void add_metrics(const metrics::MetricSet& m) {
    for (const auto metric : metrics::all_metrics()) add(m.get(metric));
    add(m.energy_kwh);
  }
  std::uint64_t digest() const { return util::hash_str(bytes_); }

 private:
  std::string bytes_;
};

inline std::uint64_t jobs_digest(const std::vector<sim::Job>& jobs) {
  DigestBytes d;
  for (const auto& job : jobs) d.add_job(job);
  return d.digest();
}

/// Metrics, the full schedule, the decision trace, counters and LLM
/// overhead of one run.
inline std::uint64_t outcome_digest(const harness::RunOutcome& o) {
  DigestBytes d;
  d.add_metrics(o.metrics);
  d.add(o.schedule.completed.size());
  for (const auto& c : o.schedule.completed) {
    d.add(c.job.id);
    d.add(c.start_time);
    d.add(c.end_time);
    d.add(c.killed_at_walltime);
  }
  d.add(o.schedule.decisions.size());
  for (const auto& r : o.schedule.decisions) {
    d.add(r.time);
    d.add(r.action.type);
    d.add(r.action.job_id);
    d.add(r.accepted);
    d.add_string(r.thought);
    d.add_string(r.feedback);
  }
  d.add(o.schedule.final_time);
  d.add(o.schedule.n_decisions);
  d.add(o.schedule.n_invalid_actions);
  d.add(o.schedule.n_forced_delays);
  d.add(o.schedule.n_backfills);
  d.add(o.overhead.has_value());
  if (o.overhead) {
    d.add(o.overhead->n_calls);
    d.add(o.overhead->n_successful);
    d.add(o.overhead->total_elapsed_s);
    d.add(o.overhead->latencies.size());
    for (const double latency : o.overhead->latencies) d.add(latency);
    d.add(o.overhead->prompt_tokens);
    d.add(o.overhead->completion_tokens);
  }
  return d.digest();
}

/// outcome_digest of every cell of a sweep, collected through
/// run_sweep_streaming's on_cell hook while each full outcome is alive.
inline std::map<harness::Cell, std::uint64_t> sweep_outcome_digests(
    const harness::SweepConfig& config) {
  std::map<harness::Cell, std::uint64_t> digests;
  harness::run_sweep_streaming(config,
                               [&](const harness::Cell& cell, const harness::RunOutcome& o) {
                                 digests.emplace(cell, outcome_digest(o));
                               });
  return digests;
}

/// Every cell's MetricSet and every group's samples of a sweep result, under
/// their canonical keys: equal digests mean bit-identical cells and groups.
inline std::uint64_t sweep_digest(const harness::StreamedSweep& sweep) {
  DigestBytes d;
  for (const auto& [cell, metric_set] : sweep.cells) {
    d.add_string(cell.scenario.to_string());
    d.add(cell.n_jobs);
    d.add_string(cell.method.to_string());
    d.add(cell.repetition);
    d.add_metrics(metric_set);
  }
  for (const auto& [key, aggregate] : sweep.groups) {
    d.add_string(key.scenario.to_string());
    d.add(key.n_jobs);
    d.add_string(key.method.to_string());
    d.add(aggregate.n_samples());
    for (const auto& sample : aggregate.samples()) d.add_metrics(sample);
  }
  return d.digest();
}

}  // namespace reasched::testing
