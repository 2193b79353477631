#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "metrics/aggregate.hpp"
#include "workload/scenario_spec.hpp"

namespace reasched::harness {

/// One cell of an experiment grid. Both axes are specs: the method axis is
/// a `MethodSpec` and the scenario axis a `workload::ScenarioSpec`, so
/// windowed/budgeted scheduler variants and perturbed/mixed/piped workload
/// variants are distinct cells like any other axis value.
struct Cell {
  workload::ScenarioSpec scenario = "hetero_mix";
  std::size_t n_jobs = 60;
  MethodSpec method = "fcfs";
  std::size_t repetition = 0;
};

bool operator<(const Cell& a, const Cell& b);

struct SweepConfig {
  /// Scenario axis as specs (`"bursty_idle"`, `"mix(long_job:0.2,
  /// resource_sparse:0.8)"`, `"hetero_mix?rate_scale=2|dag?fanout=4"`);
  /// duplicates (value equality) run once, mirroring the method axis.
  std::vector<workload::ScenarioSpec> scenarios;
  std::vector<std::size_t> job_counts;
  /// Method axis as specs; duplicates (same canonical spec) run once, so a
  /// panel assembled from several sources need not dedup by hand.
  std::vector<MethodSpec> methods;
  std::size_t repetitions = 1;
  workload::ArrivalMode arrival_mode = workload::ArrivalMode::kPoisson;
  std::uint64_t base_seed = 42;
  sim::EngineConfig engine;
  /// Worker threads for independent cells (0 = hardware concurrency).
  std::size_t threads = 0;
};

/// Workload for one cell (exposed so benches/tests can re-derive it).
std::vector<sim::Job> cell_jobs(const SweepConfig& config,
                                const workload::ScenarioSpec& scenario, std::size_t n_jobs,
                                std::size_t repetition);

/// Seed for one cell's scheduler.
std::uint64_t cell_seed(const SweepConfig& config, const Cell& cell);

/// Engine config for one cell: the sweep config's engine with the
/// scenario's `cluster?...` overrides applied, so generation-side clamping
/// and engine-side capacity always agree within a cell.
sim::EngineConfig cell_engine(const SweepConfig& config,
                              const workload::ScenarioSpec& scenario);

/// Collapse repetitions: per (scenario, n_jobs, method) aggregate.
struct GroupKey {
  workload::ScenarioSpec scenario;
  std::size_t n_jobs;
  MethodSpec method;
};
bool operator<(const GroupKey& a, const GroupKey& b);

/// Sweep result: per-cell MetricSets (a few doubles each) plus the
/// per-group aggregates, with no retained ScheduleResult.
struct StreamedSweep {
  std::map<Cell, metrics::MetricSet> cells;
  std::map<GroupKey, metrics::MetricAggregate> groups;
};

/// Run the full grid. Each cell draws its workload from a seed derived from
/// (base_seed, scenario label, n_jobs, repetition) - so all methods in a
/// cell see the *identical* job list (paired comparison, as in the paper) -
/// and its scheduler from a seed additionally keyed by method and
/// repetition. Each distinct (scenario, n_jobs, repetition) workload is
/// generated once and shared across the method axis, not re-derived per
/// method. Each cell's RunOutcome is reduced to its MetricSet the moment the
/// cell finishes and then dropped, so a 10^5-10^6-job optimizer/agent sweep
/// holds one ScheduleResult per *in-flight* cell instead of one per grid cell
/// (a full ScheduleResult retains every completed job record).
///
/// `on_cell`, when set, sees each full outcome (schedule + overhead) before
/// it is dropped - exporters and tests that compare whole runs hook here. It
/// is invoked under the result lock, i.e. serialized, but in nondeterministic
/// cell order; anything order-sensitive should key off the Cell. The result
/// is deterministic regardless of thread count (cells are reduced in key
/// order after the grid completes).
StreamedSweep run_sweep_streaming(
    const SweepConfig& config,
    const std::function<void(const Cell&, const RunOutcome&)>& on_cell = {});

/// Column names of a per-cell streaming run-log row (obs::RunLog): the cell
/// key (canonical scenario spec, jobs, canonical method spec, repetition)
/// followed by one column per metric in `metrics::all_metrics()` order.
std::vector<std::string> cell_runlog_columns();

/// One row matching cell_runlog_columns(); doubles are round-trip exact.
/// Pairs with `run_sweep_streaming`'s on_cell hook: rows arrive in cell
/// *completion* order (nondeterministic under threads), so consumers sort
/// by the leading key columns when order matters.
std::vector<std::string> cell_runlog_row(const Cell& cell, const RunOutcome& outcome);

}  // namespace reasched::harness
