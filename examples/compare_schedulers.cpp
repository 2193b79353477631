// Compare scheduler methods on one scenario, printing the FCFS-normalized
// metric table exactly as the paper's figures report it. Methods run through
// the sweep harness, so independent cells run concurrently across --threads
// workers while results stay deterministic.
//
// Both grid axes are spec-keyed: the method panel defaults to the paper's
// five and any registered method spec can be swept via repeated --method
// flags; the workload defaults to Heterogeneous Mix and any scenario spec -
// parameterized bases, mix(...) combinations, piped transforms - can be
// selected via --scenario:
//
//   ./examples/compare_schedulers [--scenario SPEC] [--jobs 60] [--seed 42]
//                                 [--threads 0] [--static] [--extensions] [--raw]
//                                 [--method SPEC]... [--list-methods] [--list-scenarios]
//                                 [--obs] [--trace-out trace.json] [--runlog-out cells.csv]
//   ./examples/compare_schedulers --scenario "mix(long_job:0.2,resource_sparse:0.8)"
//       --method fcfs --method "opt:portfolio?budget=2000&window=sjf:64"
//   ./examples/compare_schedulers
//       --scenario "hetero_mix?walltime_noise=1.0:3.0|dag?fanout=4&depth=3"
//
// (each example above is one command line, wrapped to fit.)

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "harness/method_spec.hpp"
#include "harness/sweep.hpp"
#include "metrics/report.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

namespace {

void print_usage(std::ostream& os, const char* argv0) {
  os << "Usage:\n"
     << "  " << argv0
     << " [--scenario SPEC] [--jobs N] [--seed N] [--threads N] [--method SPEC]... [flags]\n"
     << "\n"
     << "Options:\n"
     << "  --scenario SPEC    Workload scenario spec: a registered base with optional\n"
     << "                     parameters (hetero_mix?walltime_noise=1.0:3.0), a weighted\n"
     << "                     mix(spec:weight,...), and/or '|'-piped transforms\n"
     << "                     (bursty_idle|stretch?load=1.5). Default: hetero_mix\n"
     << "  --jobs N           Jobs to generate (default: 60)\n"
     << "  --seed N           Base seed for the sweep's per-cell seed derivation\n"
     << "                     (default: 42; numbers differ from pre-harness versions\n"
     << "                     of this example, which seeded the generator directly)\n"
     << "  --threads N        Worker threads for independent method runs;\n"
     << "                     0 = hardware concurrency (default: 0)\n"
     << "  --method SPEC      Add a method spec to the panel (repeatable). A spec is\n"
     << "                     name[?key=value&...], e.g. fcfs or\n"
     << "                     \"opt:portfolio?budget=2000&window=sjf:64\". When given,\n"
     << "                     replaces the default paper panel.\n"
     << "  --trace-out PATH   Write a Chrome trace-event JSON (load in Perfetto) of the\n"
     << "                     sampled decision/step spans on exit (implies --obs)\n"
     << "  --runlog-out PATH  Stream one row per finished grid cell (.jsonl = JSON\n"
     << "                     lines, else CSV); rows arrive in completion order\n"
     << "\n"
     << "Flags:\n"
     << "  --obs              Enable telemetry (metrics registry + span tracer).\n"
     << "                     Observe-only: results are bit-identical either way\n"
     << "  --list-methods     Print every registered method with its parameters and exit\n"
     << "  --list-scenarios   Print every registered scenario and transform and exit\n"
     << "  --static           All jobs submitted at t=0 instead of Poisson arrivals\n"
     << "  --extensions       Also run EASY backfilling and the fast local optimizer\n"
     << "  --raw              Print raw metric values next to normalized ones\n"
     << "  --help             Show this message\n";
}

int run(const util::CliArgs& args) {
  if (args.has("help")) {
    print_usage(std::cout, args.program().c_str());
    return 0;
  }
  if (args.has("list-methods")) {
    std::printf("Registered methods (spec grammar: name[?key=value&...]):\n\n%s",
                harness::MethodRegistry::instance().describe().c_str());
    return 0;
  }
  if (args.has("list-scenarios")) {
    std::printf("%s", workload::ScenarioRegistry::instance().describe().c_str());
    return 0;
  }
  harness::SweepConfig config;
  const std::size_t n_jobs = args.get_size("jobs", 60);
  config.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.threads = args.get_size("threads", 0, 0, 1024);  // 0 = all cores
  const auto scenario = workload::ScenarioSpec::parse(args.get("scenario", "hetero_mix"));
  workload::ScenarioRegistry::instance().validate(scenario);
  config.scenarios = {scenario};
  config.job_counts = {n_jobs};
  const auto method_specs = args.get_all("method");
  if (method_specs.empty()) config.methods = harness::paper_methods();
  for (const auto& spec : method_specs) {
    config.methods.push_back(harness::MethodSpec::parse(spec));
    // Fail fast on unknown names/parameters, before any cell runs.
    harness::make_scheduler(config.methods.back(), /*seed=*/1);
  }
  if (args.has("extensions")) {  // composes with --method panels too
    config.methods.push_back("easy");
    config.methods.push_back("agent:fastlocal");
  }
  // The sweep's duplicate-spec dedup, applied up front so the printed table
  // has one column per method, matching the one cell the grid actually ran.
  config.methods = util::dedup(config.methods);
  config.repetitions = 1;
  config.arrival_mode = args.has("static") ? workload::ArrivalMode::kStatic
                                           : workload::ArrivalMode::kPoisson;

  // Generate once up front, so ill-typed parameter *values* (validate()
  // checks names/keys only; values are typed at generation) and unreadable
  // trace paths fail here, before any cell runs, not inside the sweep.
  const std::vector<sim::Job> jobs = harness::cell_jobs(config, scenario, n_jobs, 0);
  const auto* info = workload::ScenarioRegistry::instance().find(scenario.base.name);
  std::printf("Scenario: %s - %zu jobs, %s arrivals\nspec: %s\n%s\n\n",
              workload::scenario_label(scenario).c_str(), jobs.size(),
              config.arrival_mode == workload::ArrivalMode::kStatic ? "static (all at t=0)"
                                                                    : "Poisson",
              scenario.to_string().c_str(), info != nullptr ? info->doc.c_str() : "");

  if (args.has("obs") || args.has("trace-out")) obs::set_enabled(true);
  std::shared_ptr<obs::RunLog> runlog;
  if (args.has("runlog-out")) {
    runlog = std::make_shared<obs::RunLog>(obs::make_file_sink(args.get("runlog-out", "")),
                                           harness::cell_runlog_columns());
  }

  // The sweep: each outcome is seen once by on_cell (serialized, completion
  // order) and then dropped. The table only needs each cell's metrics + overhead
  // summary, so keep those; the run log, when attached, gets one row per
  // cell as it finishes.
  std::map<harness::Cell, std::pair<metrics::MetricSet, std::optional<harness::OverheadSummary>>>
      outcomes;
  harness::run_sweep_streaming(
      config, [&](const harness::Cell& cell, const harness::RunOutcome& outcome) {
        outcomes[cell] = {outcome.metrics, outcome.overhead};
        if (runlog) runlog->append(harness::cell_runlog_row(cell, outcome));
      });
  if (runlog) runlog->flush();

  std::vector<metrics::MethodResult> rows;
  for (const auto& method : config.methods) {
    const auto& [cell_metrics, overhead] =
        outcomes.at(harness::Cell{scenario, n_jobs, method, 0});
    rows.push_back({harness::method_label(method), cell_metrics});
    if (overhead) {
      std::printf("  %-12s %3zu LLM calls, %.0f s simulated API time\n",
                  harness::method_label(method).c_str(), overhead->n_calls,
                  overhead->total_elapsed_s);
    }
  }
  const std::string anchor = harness::method_label(config.methods.front());
  std::printf("\nAll metrics normalized to %s = 1.0 (lower is better for "
              "makespan/wait/turnaround; higher for the rest; n/a = undefined 0/0):\n\n%s",
              anchor.c_str(),
              metrics::render_normalized_table(rows, anchor, args.has("raw")).c_str());
  if (args.has("trace-out")) {
    obs::TraceRecorder::global().save_chrome_trace(args.get("trace-out", ""));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"extensions", "help", "jobs", "list-methods", "list-scenarios", "method",
                         "obs", "raw", "runlog-out", "scenario", "seed", "static", "threads",
                         "trace-out"},
                        run);
}
