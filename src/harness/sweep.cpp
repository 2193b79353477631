#include "harness/sweep.hpp"

#include <tuple>

#include "util/json_writer.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace reasched::harness {

bool operator<(const Cell& a, const Cell& b) {
  return std::tie(a.scenario, a.n_jobs, a.method, a.repetition) <
         std::tie(b.scenario, b.n_jobs, b.method, b.repetition);
}

bool operator<(const GroupKey& a, const GroupKey& b) {
  return std::tie(a.scenario, a.n_jobs, a.method) < std::tie(b.scenario, b.n_jobs, b.method);
}

std::vector<sim::Job> cell_jobs(const SweepConfig& config,
                                const workload::ScenarioSpec& scenario, std::size_t n_jobs,
                                std::size_t repetition) {
  // Seeds derive from the scenario *label*, which for the seven canonical
  // paper specs is the pre-registry display name - so every recorded result
  // stays bit-identical.
  const std::uint64_t workload_seed = util::derive_seed(
      util::derive_seed(config.base_seed, workload::scenario_label(scenario), n_jobs), "rep",
      repetition);
  workload::GenerateOptions options;
  options.arrival_mode = config.arrival_mode;
  options.cluster = config.engine.cluster;
  return workload::generate_scenario(scenario, n_jobs, workload_seed, options);
}

std::uint64_t cell_seed(const SweepConfig& config, const Cell& cell) {
  return util::derive_seed(
      util::derive_seed(config.base_seed, method_label(cell.method), cell.n_jobs),
      workload::scenario_label(cell.scenario), cell.repetition + 1);
}

sim::EngineConfig cell_engine(const SweepConfig& config,
                              const workload::ScenarioSpec& scenario) {
  sim::EngineConfig engine = config.engine;
  engine.cluster = workload::effective_cluster(scenario, engine.cluster);
  return engine;
}

StreamedSweep run_sweep_streaming(
    const SweepConfig& config,
    const std::function<void(const Cell&, const RunOutcome&)>& on_cell) {
  // Workloads depend only on (scenario, n_jobs, repetition) - every method
  // in a cell sees the identical job list. Derive each list once and share
  // it across the method axis instead of regenerating per method.
  struct WorkloadKey {
    workload::ScenarioSpec scenario;
    std::size_t n_jobs;
    std::size_t repetition;
    bool operator<(const WorkloadKey& o) const {
      return std::tie(scenario, n_jobs, repetition) <
             std::tie(o.scenario, o.n_jobs, o.repetition);
    }
  };
  // Dedup both spec axes by value: the same spec listed twice (e.g. a
  // literal and a parsed copy assembled from different sources) is one
  // axis value, not two identical cells fighting over one result key.
  const std::vector<MethodSpec> methods = util::dedup(config.methods);
  const std::vector<workload::ScenarioSpec> scenarios = util::dedup(config.scenarios);

  std::map<WorkloadKey, std::size_t> workload_index;
  std::vector<WorkloadKey> workload_keys;
  std::vector<Cell> cells;
  // Cluster overrides (`|cluster?nodes=...`) are a per-scenario property;
  // resolve each scenario's engine config once, not per cell.
  std::vector<sim::EngineConfig> engines;
  std::vector<std::size_t> cell_engine_index;
  for (const auto& scenario : scenarios) {
    engines.push_back(cell_engine(config, scenario));
    for (const auto n : config.job_counts) {
      for (const auto& method : methods) {
        for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
          cells.push_back(Cell{scenario, n, method, rep});
          cell_engine_index.push_back(engines.size() - 1);
          const WorkloadKey key{scenario, n, rep};
          if (workload_index.emplace(key, workload_keys.size()).second) {
            workload_keys.push_back(key);
          }
        }
      }
    }
  }

  util::ThreadPool pool(config.threads);
  std::vector<std::vector<sim::Job>> workloads(workload_keys.size());
  pool.parallel_for(workload_keys.size(), [&](std::size_t i) {
    const WorkloadKey& key = workload_keys[i];
    workloads[i] = cell_jobs(config, key.scenario, key.n_jobs, key.repetition);
  });

  // Serializes `on_cell` and the result map: cells complete on arbitrary
  // pool threads. util::Mutex (not std::mutex) so -Werror=thread-safety
  // sees the acquisition.
  util::Mutex mu;
  StreamedSweep out;
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    const auto& jobs =
        workloads[workload_index.at(WorkloadKey{cell.scenario, cell.n_jobs, cell.repetition})];
    const RunOutcome outcome = run_method(jobs, cell.method, cell_seed(config, cell),
                                          engines[cell_engine_index[i]]);
    util::MutexLock lock(mu);
    if (on_cell) on_cell(cell, outcome);
    // Keep only the metric reduction; the ScheduleResult (per-job records,
    // decision traces) is dropped here, bounding sweep memory by in-flight
    // cells instead of grid size.
    out.cells.emplace(cell, outcome.metrics);
  });
  // Aggregate in deterministic (key) order so float accumulation does not
  // depend on thread scheduling.
  for (const auto& [cell, metric_set] : out.cells) {
    out.groups[GroupKey{cell.scenario, cell.n_jobs, cell.method}].add(metric_set);
  }
  return out;
}

std::vector<std::string> cell_runlog_columns() {
  std::vector<std::string> cols{"scenario", "jobs", "method", "rep"};
  for (const auto metric : metrics::all_metrics()) cols.push_back(metrics::to_string(metric));
  return cols;
}

std::vector<std::string> cell_runlog_row(const Cell& cell, const RunOutcome& outcome) {
  std::vector<std::string> row{cell.scenario.to_string(), std::to_string(cell.n_jobs),
                               cell.method.to_string(), std::to_string(cell.repetition)};
  for (const auto metric : metrics::all_metrics()) {
    row.push_back(util::format_double_exact(outcome.metrics.get(metric)));
  }
  return row;
}

}  // namespace reasched::harness
