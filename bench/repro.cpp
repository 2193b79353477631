// Paper-figure reproduction: every results figure of the paper (Figs. 3-8)
// and the ablations behind its Section 2.4 and Section 6 arguments, one row
// of kFigures each.
//
//   ./bench/repro [NAME...]
//
// Runs every figure, or the named ones, writing each figure's CSV into
// $REASCHED_RESULTS_DIR (default ./results), and checks each against its
// row: the paper relations it shows, and an FNV-1a digest of the bits of
// every number it reports. A broken relation or a digest mismatch exits
// non-zero naming the figure; an unknown NAME prints the figure list. A row
// is a panel (scenarios x sizes x methods x reps under one seed scheme,
// rendered by a shared view) or a bespoke function for the ablations that
// set knobs no MethodSpec names.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/factory.hpp"
#include "harness/sweep.hpp"
#include "metrics/report.hpp"
#include "opt/branch_and_bound.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "opt/simulated_annealing.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workload/polaris.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

namespace {

enum class Seeds {
  kSweep,  ///< the sweep harness derives every cell's seeds from `seed`
  kFixed,  ///< `seed` drives the workload and every method; one repetition
};

enum class View {
  kNone,        ///< the row's body renders the panel
  kNormalized,  ///< one table per (scenario, size) group, normalized to FCFS
  kOverhead,    ///< LLM overhead and schedule quality per (group, model)
};

struct Panel {
  std::vector<workload::ScenarioSpec> scenarios;
  std::vector<std::size_t> sizes;
  std::vector<harness::MethodSpec> methods;
  std::size_t reps = 1;
  Seeds seeds = Seeds::kFixed;
  std::uint64_t seed = 0;
  View view = View::kNone;
};

/// One (scenario, size, method) point of a figure, repetitions collapsed.
struct Point {
  workload::ScenarioSpec scenario;
  std::size_t n_jobs = 0;
  harness::MethodSpec method;
  metrics::MetricSet metrics;                        ///< mean over repetitions
  std::optional<harness::OverheadSummary> overhead;  ///< fixed-seed LLM runs
  std::size_t backfills = 0;                         ///< fixed-seed runs
};

/// What one figure run reports: its points, the bits of every number it
/// reports, and what failed.
struct Report {
  explicit Report(std::string figure) : name(std::move(figure)) {}

  std::string name;
  std::vector<Point> points;
  std::string bits;
  std::vector<std::string> failures;

  void add(Point p) {
    numbers(p.metrics);
    if (p.overhead) {
      number(p.overhead->total_elapsed_s);
      number(static_cast<double>(p.overhead->n_calls));
      number(static_cast<double>(p.overhead->n_successful));
      for (const double x : p.overhead->latencies) number(x);
    }
    number(static_cast<double>(p.backfills));
    points.push_back(std::move(p));
  }

  void number(double v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    bits.append(raw, sizeof v);
  }

  void numbers(const metrics::MetricSet& m) {
    for (const double v : {m.makespan, m.avg_wait, m.avg_turnaround, m.throughput, m.node_util,
                           m.mem_util, m.wait_fairness, m.user_fairness, m.energy_kwh}) {
      number(v);
    }
  }

  const Point& at(const workload::ScenarioSpec& scenario, std::size_t n_jobs,
                  const harness::MethodSpec& method) const {
    for (const auto& p : points) {
      if (p.scenario == scenario && p.n_jobs == n_jobs && p.method == method) return p;
    }
    throw std::out_of_range(name + ": " + method.to_string() + " missing from the panel");
  }

  void check(bool holds, const std::string& relation) {
    std::printf("relation %s: %s\n", holds ? "holds" : "BROKEN", relation.c_str());
    if (!holds) failures.push_back("relation broken: " + relation);
  }

  /// Write `csv` into $REASCHED_RESULTS_DIR (default ./results) as `file`,
  /// by default `<figure name>.csv`.
  void save(const util::CsvTable& csv, const std::string& file = "") const {
    const char* env = std::getenv("REASCHED_RESULTS_DIR");
    const std::string dir = env != nullptr ? env : "results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + (file.empty() ? name + ".csv" : file);
    csv.save(path);
    std::printf("CSV written to %s\n", path.c_str());
  }
};

void run_panel(const Panel& panel, Report& report) {
  if (panel.seeds == Seeds::kSweep) {
    harness::SweepConfig config;
    config.scenarios = panel.scenarios;
    config.job_counts = panel.sizes;
    config.methods = panel.methods;
    config.repetitions = panel.reps;
    config.base_seed = panel.seed;
    const auto groups = harness::run_sweep_streaming(config).groups;
    for (const auto& scenario : panel.scenarios) {
      for (const auto n : panel.sizes) {
        for (const auto& method : panel.methods) {
          report.add({scenario, n, method, groups.at({scenario, n, method}).mean_set(), {}});
        }
      }
    }
    return;
  }
  for (const auto& scenario : panel.scenarios) {
    for (const auto n : panel.sizes) {
      const auto jobs = workload::generate_scenario(scenario, n, panel.seed);
      for (const auto& method : panel.methods) {
        auto outcome = harness::run_method(jobs, method, panel.seed);
        report.add({scenario, n, method, outcome.metrics, std::move(outcome.overhead),
                    outcome.schedule.n_backfills});
      }
    }
  }
}

/// A figure's points split into runs sharing (scenario, size): one table
/// group each, in panel order.
std::vector<std::vector<Point>> groups_of(const std::vector<Point>& points) {
  std::vector<std::vector<Point>> groups;
  for (const auto& p : points) {
    if (groups.empty() || groups.back().front().scenario != p.scenario ||
        groups.back().front().n_jobs != p.n_jobs) {
      groups.emplace_back();
    }
    groups.back().push_back(p);
  }
  return groups;
}

/// Groups are keyed by scenario when a figure's scenarios vary, else by size.
bool by_scenario(const std::vector<Point>& points) {
  return std::any_of(points.begin(), points.end(),
                     [&](const Point& p) { return p.scenario != points.front().scenario; });
}

std::string group_key(const Point& p, bool scenario_keyed) {
  return scenario_keyed ? workload::scenario_label(p.scenario) : std::to_string(p.n_jobs);
}

std::vector<metrics::MethodResult> method_rows(const std::vector<Point>& group) {
  std::vector<metrics::MethodResult> rows;
  for (const auto& p : group) rows.push_back({harness::method_label(p.method), p.metrics});
  return rows;
}

/// Figures 3, 4 and 8: one FCFS-normalized table per group (a group where no
/// job waited under any method prints one line instead of a table of
/// 1.000/n/a), plus one series table per headline metric when the size axis
/// varies. A single-group figure exports `metrics::normalized_csv`; grouped
/// figures prefix each CSV row with the group key.
void render_normalized(Report& report) {
  const bool scenario_keyed = by_scenario(report.points);
  const auto groups = groups_of(report.points);
  util::CsvTable csv({scenario_keyed ? "scenario" : "n_jobs", "method", "metric", "value",
                      "normalized", "defined"});
  for (const auto& group : groups) {
    const Point& head = group.front();
    if (scenario_keyed) {
      std::printf("--- %s ---\n%s\n", workload::scenario_label(head.scenario).c_str(),
                  workload::ScenarioRegistry::instance().at(head.scenario.base.name).doc.c_str());
    } else if (groups.size() > 1) {
      std::printf("--- %zu jobs ---\n", head.n_jobs);
    }
    const auto rows = method_rows(group);
    const auto no_wait = [](const metrics::MethodResult& r) { return r.metrics.avg_wait == 0.0; };
    if (std::all_of(rows.begin(), rows.end(), no_wait)) {
      std::printf("uncontended: no job waited under any method\n\n");
    } else {
      std::printf("%s\n", metrics::render_normalized_table(rows, "FCFS").c_str());
    }
    if (groups.size() == 1) {
      csv = metrics::normalized_csv(rows, "FCFS");
      break;
    }
    const auto& baseline = rows.front().metrics;
    for (const auto& row : rows) {
      for (const auto metric : metrics::all_metrics()) {
        const auto n = metrics::normalize(row.metrics, baseline, metric);
        csv.add_row({group_key(head, scenario_keyed), row.method, metrics::to_string(metric),
                     util::format("%.6f", row.metrics.get(metric)),
                     util::format("%.6f", n.value), n.defined ? "1" : "0"});
      }
    }
  }

  // Series view: one table per metric, sizes as columns (the figure's lines).
  if (!scenario_keyed && groups.size() > 1) {
    for (const auto metric : {metrics::Metric::kNodeUtil, metrics::Metric::kThroughput,
                              metrics::Metric::kWaitFairness, metrics::Metric::kAvgWait}) {
      std::vector<std::string> header = {"Method \\ jobs"};
      for (const auto& group : groups) header.push_back(std::to_string(group.front().n_jobs));
      util::TextTable series(std::move(header));
      for (std::size_t m = 0; m < groups.front().size(); ++m) {
        std::vector<std::string> cells = {harness::method_label(groups.front()[m].method)};
        for (const auto& group : groups) {
          const auto norm = metrics::normalize(group[m].metrics, group.front().metrics, metric);
          cells.push_back(norm.defined ? util::TextTable::num(norm.value, 2)
                                       : util::TextTable::na());
        }
        series.add_row(std::move(cells));
      }
      std::printf("Series: %s (normalized to FCFS)\n%s\n", metrics::to_string(metric).c_str(),
                  series.render().c_str());
    }
  }
  report.save(csv);
}

/// Figures 5-6 and the deployment ablation: per (group, model), the total
/// elapsed API time of successful calls, the call counts, the per-call
/// latency distribution (Figs. 5-6, right panels) and the schedule quality.
void render_overhead(Report& report) {
  const bool scenario_keyed = by_scenario(report.points);
  util::TextTable table({scenario_keyed ? "Scenario" : "Jobs", "Model", "Elapsed", "s/job",
                         "Calls", "Placed", "Mean s", "Median s", "p95 s", "Max s", "Outliers",
                         "Makespan", "Avg wait", "Wait fairness"});
  util::CsvTable csv({scenario_keyed ? "scenario" : "n_jobs", "model", "elapsed_s",
                      "seconds_per_job", "calls", "successful", "latency_mean_s",
                      "latency_median_s", "latency_p95_s", "latency_max_s", "makespan",
                      "avg_wait", "wait_fairness"});
  for (const auto& group : groups_of(report.points)) {
    for (const auto& p : group) {
      const auto& o = p.overhead.value();
      const auto box = util::box_stats(o.latencies);
      const double mean = util::mean(o.latencies);
      const double p95 = util::quantile(o.latencies, 0.95);
      const double per_job =
          o.n_successful > 0 ? o.total_elapsed_s / static_cast<double>(o.n_successful) : 0.0;
      const auto& m = p.metrics;

      const std::string key = group_key(p, scenario_keyed);
      const std::string model = harness::method_label(p.method);
      table.add_row({key, model, util::format_duration(o.total_elapsed_s),
                     util::TextTable::num(per_job, 2), std::to_string(o.n_calls),
                     std::to_string(o.n_successful), util::TextTable::num(mean, 1),
                     util::TextTable::num(box.median, 1), util::TextTable::num(p95, 1),
                     util::TextTable::num(box.max, 1), std::to_string(box.outliers.size()),
                     util::TextTable::num(m.makespan, 0), util::TextTable::num(m.avg_wait, 1),
                     util::TextTable::num(m.wait_fairness, 3)});
      csv.add_row({key, model, util::format("%.3f", o.total_elapsed_s),
                   util::format("%.4f", per_job), std::to_string(o.n_calls),
                   std::to_string(o.n_successful), util::format("%.3f", mean),
                   util::format("%.3f", box.median), util::format("%.3f", p95),
                   util::format("%.3f", box.max), util::format("%.3f", m.makespan),
                   util::format("%.3f", m.avg_wait), util::format("%.5f", m.wait_fairness)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  report.save(csv);
}

/// Does `method` have the strictly highest (or lowest) `metric` among the
/// points at (scenario, n_jobs)?
bool leads(const Report& r, const workload::ScenarioSpec& scenario, std::size_t n_jobs,
           const harness::MethodSpec& method, metrics::Metric metric, bool highest) {
  const double mine = r.at(scenario, n_jobs, method).metrics.get(metric);
  return std::all_of(r.points.begin(), r.points.end(), [&](const Point& p) {
    const double v = p.metrics.get(metric);
    return p.scenario != scenario || p.n_jobs != n_jobs || p.method == method ||
           (highest ? v < mine : v > mine);
  });
}

void fig3_relations(Report& r) {
  const workload::ScenarioSpec hp = "high_parallel";
  r.check(leads(r, hp, 60, "opt:portfolio", metrics::Metric::kNodeUtil, true),
          "high_parallel: OR-Tools* has the highest node utilization");
  r.check(r.at(hp, 60, "opt:portfolio").metrics.wait_fairness <
              r.at(hp, 60, "fcfs").metrics.wait_fairness,
          "high_parallel: OR-Tools* has lower wait fairness than FCFS");
}

void fig4_relations(Report& r) {
  r.check(leads(r, "hetero_mix", 100, "opt:portfolio", metrics::Metric::kNodeUtil, true),
          "100 jobs: OR-Tools* has the highest node utilization");
  r.check(leads(r, "hetero_mix", 100, "opt:portfolio", metrics::Metric::kWaitFairness, false),
          "100 jobs: OR-Tools* has the lowest wait fairness");
}

/// Headline ratio: O4-Mini vs Claude total elapsed time per scenario (the
/// panel's two models, in that order).
void fig5_ratios(Report& r) {
  util::TextTable speed({"Scenario", "O4/Claude elapsed ratio"});
  bool all_slower = true;
  for (const auto& group : groups_of(r.points)) {
    const double claude = group[0].overhead->total_elapsed_s;
    const double o4 = group[1].overhead->total_elapsed_s;
    speed.add_row({workload::scenario_label(group[0].scenario),
                   claude > 0 ? util::TextTable::ratio(o4 / claude) : "n/a"});
    all_slower = all_slower && claude > 0 && o4 / claude > 1.0;
  }
  std::printf("%s\n", speed.render().c_str());
  r.check(all_slower, "the O4/Claude elapsed ratio is > 1 in every scenario");
}

/// Growth shape: elapsed(100) / elapsed(40) against the linear 2.5x.
void fig6_growth(Report& r) {
  for (const harness::MethodSpec model : {"agent:claude37", "agent:o4mini"}) {
    const double at40 = r.at("hetero_mix", 40, model).overhead->total_elapsed_s;
    const double at100 = r.at("hetero_mix", 100, model).overhead->total_elapsed_s;
    std::printf("%s: elapsed grows %.1fx from 40 to 100 jobs (linear would be 2.5x)\n",
                harness::method_label(model).c_str(), at40 > 0 ? at100 / at40 : 0.0);
  }
  std::printf("\n");
}

void fig7_robustness(Report& r) {
  constexpr std::size_t kReps = 5;
  const auto jobs = workload::generate_scenario("hetero_mix", 100, 424242);

  // FCFS is deterministic: one run defines the normalization baseline.
  const auto baseline = harness::run_method(jobs, "fcfs", 1).metrics;
  r.numbers(baseline);

  util::TextTable table(
      {"Metric", "Method", "Min", "Q1", "Median", "Q3", "Max", "Mean", "StdDev"});
  util::CsvTable csv({"metric", "method", "rep", "value", "normalized"});

  std::map<harness::MethodSpec, metrics::MetricAggregate> aggregates;
  for (const auto& method : harness::paper_methods()) {
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const auto outcome =
          harness::run_method(jobs, method, util::derive_seed(5150, "rep", rep + 1));
      r.numbers(outcome.metrics);
      aggregates[method].add(outcome.metrics);
      for (const auto metric : metrics::all_metrics()) {
        const auto norm = metrics::normalize(outcome.metrics, baseline, metric);
        csv.add_row({metrics::to_string(metric), harness::method_label(method),
                     std::to_string(rep), util::format("%.6f", outcome.metrics.get(metric)),
                     util::format("%.6f", norm.value)});
      }
    }
  }

  for (const auto metric : metrics::all_metrics()) {
    const double base = baseline.get(metric);
    for (const auto& method : harness::paper_methods()) {
      auto values = aggregates[method].values(metric);
      if (base != 0.0) {
        for (auto& v : values) v /= base;
      }
      const auto box = util::box_stats(values);
      table.add_row({metrics::to_string(metric), harness::method_label(method),
                     util::TextTable::num(box.min, 3), util::TextTable::num(box.q1, 3),
                     util::TextTable::num(box.median, 3), util::TextTable::num(box.q3, 3),
                     util::TextTable::num(box.max, 3), util::TextTable::num(box.mean, 3),
                     util::TextTable::num(util::stddev(values), 4)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());

  // Variance headline: deterministic heuristics flat, LLMs tight, OR looser
  // on fairness.
  auto fairness_std = [&](const harness::MethodSpec& m) {
    return util::stddev(aggregates[m].values(metrics::Metric::kWaitFairness));
  };
  std::printf("Wait-fairness stddev across reps: FCFS %.4f | SJF %.4f | OR-Tools* %.4f | "
              "Claude %.4f | O4 %.4f\n",
              fairness_std("fcfs"), fairness_std("sjf"), fairness_std("opt:portfolio"),
              fairness_std("agent:claude37"), fairness_std("agent:o4mini"));
  r.save(csv);
  // Deterministic heuristics must reproduce the same value every rep, bit
  // for bit. stddev() == 0 is the wrong test: summing five equal values and
  // dividing by five can leave a 1e-16 residue, so it fails on runs whose
  // values are all identical.
  auto identical_reps = [&](const harness::MethodSpec& m) {
    const auto v = aggregates[m].values(metrics::Metric::kWaitFairness);
    return std::all_of(v.begin(), v.end(), [&](double x) {
      return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(v.front());
    });
  };
  r.check(identical_reps("fcfs") && identical_reps("sjf"),
          "FCFS and SJF have bit-identical wait fairness across reps");
}

/// The Polaris-like trace replayed on the 560-node partition: a bespoke
/// workload rendered by the shared normalized view, plus the raw values.
void fig8_polaris(Report& r) {
  constexpr std::uint64_t kSeed = 20241101;
  workload::PolarisTraceConfig raw_config;
  raw_config.n_jobs = 170;
  const auto raw = workload::generate_polaris_raw_trace(raw_config, kSeed);
  r.save(raw, "fig8_polaris_raw_trace.csv");
  const auto jobs = workload::preprocess_polaris_trace(raw, 100);
  r.number(static_cast<double>(raw.rows()));
  r.number(static_cast<double>(jobs.size()));
  std::printf("Raw rows: %zu -> preprocessed completed jobs: %zu\n\n", raw.rows(), jobs.size());

  sim::EngineConfig engine;
  engine.cluster = sim::ClusterSpec::polaris();
  for (const auto& method : harness::paper_methods()) {
    auto outcome = harness::run_method(jobs, method, kSeed, engine);
    if (outcome.overhead) {
      std::printf("%-12s: %zu LLM calls, %.0f s simulated API time\n",
                  harness::method_label(method).c_str(), outcome.overhead->n_calls,
                  outcome.overhead->total_elapsed_s);
    }
    r.add({{}, jobs.size(), method, outcome.metrics, std::move(outcome.overhead)});
  }
  std::printf("\n");
  render_normalized(r);
  std::printf("(raw values)\n%s\n",
              metrics::render_normalized_table(method_rows(r.points), "FCFS", /*raw=*/true)
                  .c_str());
}

void estimate_noise_table(Report& r) {
  util::TextTable table({"f (over-request)", "Method", "Avg wait", "Makespan", "Node util",
                         "Backfills"});
  util::CsvTable csv({"factor", "method", "avg_wait", "makespan", "node_util", "backfills"});
  for (const auto& group : groups_of(r.points)) {
    const double factor = util::SpecParamReader(group.front().scenario.base)
                              .get_range("walltime_noise", 1.0, 1.0, 1.0)
                              .second;
    for (const auto& p : group) {
      table.add_row({util::TextTable::num(factor, 1), harness::method_label(p.method),
                     util::TextTable::num(p.metrics.avg_wait, 1),
                     util::TextTable::num(p.metrics.makespan, 0),
                     util::TextTable::num(p.metrics.node_util, 3), std::to_string(p.backfills)});
      csv.add_row({util::format("%.1f", factor), harness::method_label(p.method),
                   util::format("%.3f", p.metrics.avg_wait),
                   util::format("%.3f", p.metrics.makespan),
                   util::format("%.5f", p.metrics.node_util), std::to_string(p.backfills)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  r.save(csv);
}

/// Scratchpad memory and constraint feedback on/off under a stressed
/// hallucination rate: knobs of the agent and the engine, not of a method.
void agent_components(Report& r) {
  struct Variant {
    const char* name;
    bool scratchpad;
    bool feedback;
  };
  const Variant variants[] = {
      {"full agent", true, true},
      {"no scratchpad", false, true},
      {"no feedback", true, false},
      {"neither", false, false},
  };
  const auto jobs = workload::generate_scenario("hetero_mix", 60, 616);

  util::TextTable table({"Variant", "LLM calls", "Rejected", "Wasted API", "Useful API",
                         "Makespan", "Node util"});
  util::CsvTable csv({"variant", "llm_calls", "invalid_actions", "wasted_api_s",
                      "useful_api_s", "makespan", "node_util"});
  std::vector<metrics::MetricSet> quality;  // per variant
  for (const auto& v : variants) {
    core::AgentConfig agent_config;
    agent_config.scratchpad_enabled = v.scratchpad;
    // Stress the feasibility-reasoning failure mode: the model frequently
    // "decides" on a high-scoring job that does not fit. With scratchpad +
    // feedback a single rejection is remembered and avoided; without them
    // the agent keeps re-proposing blocked jobs.
    auto profile = llm::o4mini_profile();
    profile.temperament.hallucination_rate = 0.45;
    const auto agent = core::make_agent(profile, 616, agent_config);

    sim::EngineConfig engine_config;
    engine_config.feedback_enabled = v.feedback;
    engine_config.max_invalid_retries = 6;
    sim::Engine engine(engine_config);
    const auto result = engine.run(jobs, *agent);
    const auto m = metrics::compute_metrics(result, engine_config.cluster);
    quality.push_back(m);

    // Wasted = latency of calls whose action was rejected.
    double wasted = 0.0;
    for (const auto& call : agent->transcript().calls()) {
      if (!call.accepted && (call.action == sim::ActionType::kStartJob ||
                             call.action == sim::ActionType::kBackfillJob)) {
        wasted += call.latency_seconds;
      }
    }
    const double useful = agent->transcript().total_elapsed_successful();
    const std::size_t calls = agent->transcript().n_calls();
    for (const double x : {static_cast<double>(calls),
                           static_cast<double>(result.n_invalid_actions), wasted, useful}) {
      r.number(x);
    }
    r.numbers(m);

    table.add_row({v.name, std::to_string(calls), std::to_string(result.n_invalid_actions),
                   util::format_duration(wasted), util::format_duration(useful),
                   util::TextTable::num(m.makespan, 0), util::TextTable::num(m.node_util, 3)});
    csv.add_row({v.name, std::to_string(calls), std::to_string(result.n_invalid_actions),
                 util::format("%.1f", wasted),
                 util::format("%.1f", useful), util::format("%.3f", m.makespan),
                 util::format("%.5f", m.node_util)});
  }
  std::printf("%s\n", table.render().c_str());
  r.save(csv);
  r.check(std::all_of(quality.begin(), quality.end(),
                      [&](const metrics::MetricSet& m) {
                        return m.makespan == quality.front().makespan &&
                               m.node_util == quality.front().node_util;
                      }),
          "makespan and node utilization are equal across all four variants");
}

/// A: the LLM temperament's fairness weight (the rest renormalized);
/// B: the OR objective's wait term. Neither is a MethodSpec parameter.
void policy_weights(Report& r) {
  const auto jobs = workload::generate_scenario("long_job", 60, 2718);
  sim::Engine engine;

  std::printf("A) LLM temperament: fairness weight sweep (Long-Job Dominant, 60 jobs)\n");
  util::TextTable a({"w_fairness", "Avg wait", "Wait fairness", "User fairness", "Node util",
                     "Makespan"});
  util::CsvTable csv({"part", "knob", "avg_wait", "wait_fairness", "user_fairness",
                      "node_util", "makespan"});
  for (const double wf : {0.0, 0.15, 0.3, 0.5, 0.7}) {
    auto profile = llm::claude37_profile();
    const double rest = 1.0 - wf;
    profile.temperament.w_fairness = wf;
    profile.temperament.w_makespan = rest * 0.28;
    profile.temperament.w_utilization = rest * 0.34;
    profile.temperament.w_throughput = rest * 0.38;
    profile.display_name = util::format("fairness=%.2f", wf);
    const auto agent = core::make_agent(profile, 2718);
    const auto m = metrics::compute_metrics(engine.run(jobs, *agent), engine.config().cluster);
    r.numbers(m);
    a.add_row({util::TextTable::num(wf, 2), util::TextTable::num(m.avg_wait, 1),
               util::TextTable::num(m.wait_fairness, 3), util::TextTable::num(m.user_fairness, 3),
               util::TextTable::num(m.node_util, 3), util::TextTable::num(m.makespan, 0)});
    csv.add_row({"llm_fairness", util::format("%.2f", wf), util::format("%.3f", m.avg_wait),
                 util::format("%.5f", m.wait_fairness), util::format("%.5f", m.user_fairness),
                 util::format("%.5f", m.node_util), util::format("%.3f", m.makespan)});
  }
  std::printf("%s\n", a.render().c_str());

  std::printf("B) OR-Tools* objective: wait-term sweep (same workload)\n");
  util::TextTable b({"wait_weight", "Avg wait", "Wait fairness", "Node util", "Makespan"});
  for (const double ww : {0.0, 0.01, 0.05, 0.2}) {
    opt::OptimizingSchedulerConfig config;
    config.seed = 2718;
    config.weights.wait_weight = ww;
    opt::OptimizingScheduler scheduler(config);
    const auto m =
        metrics::compute_metrics(engine.run(jobs, scheduler), engine.config().cluster);
    r.numbers(m);
    b.add_row({util::TextTable::num(ww, 2), util::TextTable::num(m.avg_wait, 1),
               util::TextTable::num(m.wait_fairness, 3), util::TextTable::num(m.node_util, 3),
               util::TextTable::num(m.makespan, 0)});
    csv.add_row({"or_wait", util::format("%.2f", ww), util::format("%.3f", m.avg_wait),
                 util::format("%.5f", m.wait_fairness), "", util::format("%.5f", m.node_util),
                 util::format("%.3f", m.makespan)});
  }
  std::printf("%s\n", b.render().c_str());
  r.save(csv);
}

/// The portfolio's solvers called directly on identical static instances.
void solvers(Report& r) {
  util::TextTable table({"Jobs", "Solver", "Makespan", "vs best", "Evals", "Cutoff%"});
  util::CsvTable csv(
      {"n_jobs", "solver", "score", "ratio_vs_best", "evaluations", "cutoff_hit_rate"});

  for (const std::size_t n : {8u, 30u, 60u}) {
    opt::Problem p;
    p.total_nodes = 256;
    p.total_memory_gb = 2048;
    workload::GenerateOptions static_arrivals;
    static_arrivals.arrival_mode = workload::ArrivalMode::kStatic;
    p.jobs = workload::generate_scenario("hetero_mix", n, 1618, static_arrivals);
    const opt::ObjectiveWeights w;
    const auto seed_order = opt::order_by_arrival(p);
    const double seed_score = opt::evaluate(opt::decode_order(p, seed_order), w);

    struct Row {
      std::string name;
      double score;
      std::size_t evals;
      double cutoff_rate = 0.0;  ///< aborted fraction of evaluator calls
    };
    std::vector<Row> rows;
    rows.push_back({"arrival seed", seed_score, 1});

    const auto cutoff_rate = [](const opt::EvalStats& s) {
      return s.evaluations == 0
                 ? 0.0
                 : static_cast<double>(s.cutoff_hits) / static_cast<double>(s.evaluations);
    };
    const auto ls = opt::local_search(p, seed_order, w, 3000);
    rows.push_back({"local search", ls.score, ls.evaluations, cutoff_rate(ls.eval)});
    util::Rng rng(1);
    opt::SaConfig sa_config;
    sa_config.iterations = 4000;
    const auto sa = opt::simulated_annealing(p, seed_order, w, sa_config, rng);
    rows.push_back({"simulated annealing", sa.score, sa.evaluations, cutoff_rate(sa.eval)});
    if (n <= 9) {
      const auto bnb = opt::branch_and_bound(p, w);
      rows.push_back({bnb.proven_optimal ? "branch&bound (optimal)" : "branch&bound (capped)",
                      bnb.score, bnb.explored,
                      bnb.explored == 0 ? 0.0
                                        : static_cast<double>(bnb.pruned) /
                                              static_cast<double>(bnb.explored)});
    }

    double best = rows.front().score;
    for (const auto& row : rows) best = std::min(best, row.score);
    for (const auto& row : rows) {
      for (const double x : {row.score, static_cast<double>(row.evals), row.cutoff_rate}) {
        r.number(x);
      }
      table.add_row({std::to_string(n), row.name, util::TextTable::num(row.score, 1),
                     util::TextTable::ratio(row.score / best), std::to_string(row.evals),
                     util::format("%.1f%%", 100.0 * row.cutoff_rate)});
      csv.add_row({std::to_string(n), row.name, util::format("%.3f", row.score),
                   util::format("%.4f", row.score / best), std::to_string(row.evals),
                   util::format("%.4f", row.cutoff_rate)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  r.save(csv);
}

struct Figure {
  const char* name;      ///< the CLI key
  const char* title;     ///< banner
  const char* subtitle;  ///< banner
  const char* doc;       ///< the expected shape, printed under the banner
  Panel panel;           ///< bespoke rows leave `methods` empty
  void (*body)(Report&);  ///< after the panel's view (or null), or the whole bespoke figure
  std::uint64_t digest;  ///< FNV-1a of every reported number's bits
};

const std::vector<Figure>& figures() {
  static const std::vector<Figure> kFigures = {
      {"fig3_scenario_comparison", "Figure 3 - scenario comparison (60 jobs, normalized to FCFS)",
       "six scenarios x five methods, Poisson arrivals, 2 repetitions",
       "Paper Section 3.5: LLM schedulers stay balanced; OR-Tools leads utilization/\n"
       "throughput but degrades fairness; FCFS/SJF suffer the convoy effect in Long-Job\n"
       "Dominant; Adversarial, Homogeneous Short and Resource Sparse flatten\n"
       "differences. Heterogeneous Mix is fig4's, exactly as in the paper.",
       {.scenarios = {"homog_short", "long_job", "high_parallel", "resource_sparse",
                      "bursty_idle", "adversarial"},
        .sizes = {60}, .methods = harness::paper_methods(), .reps = 2, .seeds = Seeds::kSweep,
        .seed = 20250611, .view = View::kNormalized},
       fig3_relations, 0x421849fda28fd07a},
      {"fig4_scalability", "Figure 4 - scalability (Heterogeneous Mix, 10..100 jobs)",
       "normalized to FCFS per size; series per metric below",
       "Paper Section 3.6: at 10-20 jobs all methods are close; differentiation grows\n"
       "with scale; OR-Tools reaches the highest resource utilization (paper: up to\n"
       "~1.8x) while its fairness collapses; the LLM agents keep balanced profiles\n"
       "(throughput/utilization >1.2x with fairness maintained); FCFS/SJF stay static.",
       {.scenarios = {"hetero_mix"}, .sizes = workload::paper_job_counts(),
        .methods = harness::paper_methods(), .reps = 2, .seeds = Seeds::kSweep,
        .seed = 20250612, .view = View::kNormalized},
       fig4_relations, 0x7b7a9689f03c4346},
      {"fig5_overhead_workloads",
       "Figure 5 - overhead per workload (60 jobs, successful calls only)",
       "simulated API latencies; elapsed = sum of successful-call latencies",
       "Paper Section 3.7.1, accepted StartJob/BackfillJob calls only: Claude always\n"
       "lower total elapsed time (paper: up to ~7x on Heterogeneous Mix), per-call\n"
       "latencies clustered below 10 s; O4-Mini heavy-tailed with >100 s outliers in\n"
       "heterogeneous queues; call counts about equal to the job count for both.",
       {.scenarios = {"homog_short", "long_job", "high_parallel", "resource_sparse",
                      "bursty_idle", "adversarial", "hetero_mix"},
        .sizes = {60}, .methods = {"agent:claude37", "agent:o4mini"}, .seed = 7331,
        .view = View::kOverhead},
       fig5_ratios, 0x4ac9b24808c13bf8},
      {"fig6_overhead_scaling", "Figure 6 - overhead scaling (Heterogeneous Mix, 10..100 jobs)",
       "successful StartJob/BackfillJob calls only",
       "Paper Section 3.7.2: both models grow monotonically; O4-Mini super-linear\n"
       "from ~40 jobs (the paper's transient spike at 80 jobs is a one-off network\n"
       "event and is not reproduced), Claude near-linear; call counts scale linearly\n"
       "for both; O4's latency spread widens with scale, with outliers beyond 200 s.",
       {.scenarios = {"hetero_mix"}, .sizes = workload::paper_job_counts(),
        .methods = {"agent:claude37", "agent:o4mini"}, .seed = 9229, .view = View::kOverhead},
       fig6_growth, 0x1e276a9cfa21b5d1},
      {"fig7_robustness", "Figure 7 - robustness (Heterogeneous Mix, 100 jobs, 5 repetitions)",
       "box statistics of FCFS-normalized metrics across repeated runs",
       "Paper Section 4: LLM schedulers show tight variance with consistent\n"
       "improvements; OR-Tools attains top utilization but larger fairness variance\n"
       "(stochastic annealing); FCFS/SJF are deterministic and flat.",
       {}, fig7_robustness, 0xb4b34770ec1713f3},
      {"fig8_polaris", "Figure 8 - Polaris trace replay (100 jobs, normalized to FCFS)",
       "synthetic Polaris-like trace -> paper preprocessing -> replay",
       "Paper Section 5 on the synthetic Polaris-like trace (the ALCF logs are not\n"
       "public), replayed on the 560-node partition idle at time zero: LLM schedulers\n"
       "cut wait and turnaround (comparable to SJF) with utilization/throughput on\n"
       "par and strong fairness. Not a comparison against the real Polaris scheduler.",
       {}, fig8_polaris, 0x4a47ccb4bcb462f1},
      {"ablation_agent_components", "Ablation - agent components (O4 profile, HetMix, 60 jobs)",
       "scratchpad memory and constraint feedback on/off",
       "Constraint enforcement is separate from reasoning (paper Section 2.4), so\n"
       "schedule quality is identical across all variants; what degrades is the\n"
       "reasoning bill: extra LLM calls and simulated API seconds burned on rejected\n"
       "proposals (O4-Mini profile, whose per-call latency makes waste expensive).",
       {}, agent_components, 0x3b9c3b5d5f23ef5f},
      {"ablation_deployment", "Ablation - deployment profiles (Heterogeneous Mix)",
       "cloud Claude 3.7 / cloud O4-Mini / on-prem Fast-Local",
       "Paper Sections 3.7.3 and 6: at the paper's cloud latencies, scheduling 100\n"
       "jobs costs tens of minutes of API time; the on-prem Fast-Local profile keeps\n"
       "Claude-profile schedule quality and brings it under a minute (>10x faster),\n"
       "far beyond the paper's ~100-200 job deployment estimate.",
       {.scenarios = {"hetero_mix"}, .sizes = {20, 60, 100},
        .methods = {"agent:claude37", "agent:o4mini", "agent:fastlocal"}, .seed = 3141,
        .view = View::kOverhead},
       nullptr, 0xb7aff25d6cba424a},
      {"ablation_estimate_noise",
       "Ablation - walltime-estimate noise (Heterogeneous Mix, 60 jobs)",
       "walltime = runtime x U(1, f); schedulers see walltime only",
       "FCFS ignores estimates and OR-Tools gets the true durations (Section 3.3), so\n"
       "both are invariant; SJF mis-orders jobs as estimates blur; EASY's backfilling\n"
       "weakens; the LLM agent degrades mildly (estimates feed one of its four\n"
       "objectives). The base workload is noise-invariant, so the draws are paired.",
       {.scenarios = {"hetero_mix?walltime_noise=1.0:1.0", "hetero_mix?walltime_noise=1.0:1.5",
                      "hetero_mix?walltime_noise=1.0:3.0", "hetero_mix?walltime_noise=1.0:6.0"},
        .sizes = {60}, .methods = {"fcfs", "sjf", "easy", "opt:portfolio", "agent:claude37"},
        .seed = 8088},
       estimate_noise_table, 0x31c00e9fdd069d6a},
      {"ablation_policy_weights", "Ablation - objective weights",
       "A: LLM fairness-weight sweep; B: OR wait-term sweep",
       "The temperament drives the fairness/efficiency trade-off the paper attributes\n"
       "to the two models (Section 3.5): fairness rises with the LLM fairness weight\n"
       "as utilization gives ground; the OR optimizer regains fairness as its wait\n"
       "term grows, at a makespan/utilization cost.",
       {}, policy_weights, 0x9494a851bcb146a0},
      {"ablation_solvers", "Ablation - optimization solvers (Heterogeneous Mix, makespan)",
       "identical instances, ~comparable evaluation budgets",
       "Why opt:portfolio ships SA+LS: SA beats local search by a few percent on the\n"
       "larger instances; B&B certifies the optimum on small ones. Cutoff% is the\n"
       "share of evaluations the admissible bound aborted (no decision changes).",
       {}, solvers, 0x6b9c3f70b379b56b},
  };
  return kFigures;
}

/// Run one figure; returns what failed (empty when it reproduces).
std::vector<std::string> run(const Figure& f) {
  bench::print_header((std::string(f.name) + ": " + f.title).c_str(), f.subtitle);
  std::printf("%s\n\n", f.doc);
  Report report(f.name);
  if (!f.panel.methods.empty()) {
    run_panel(f.panel, report);
    if (f.panel.view == View::kNormalized) render_normalized(report);
    if (f.panel.view == View::kOverhead) render_overhead(report);
  }
  if (f.body != nullptr) f.body(report);
  const auto hex = [](std::uint64_t d) {
    return util::format("0x%016llx", static_cast<unsigned long long>(d));
  };
  const std::string digest = hex(util::hash_str(report.bits));
  if (digest == hex(f.digest)) {
    std::printf("digest %s matches\n\n", digest.c_str());
  } else {
    report.failures.push_back("digest " + digest + " != pinned " + hex(f.digest) +
                              " (if intended, paste the new digest into the row)");
  }
  return report.failures;
}

/// Every argument is a figure name: repro accepts no --flags.
int run_figures(const util::CliArgs& args) {
  std::vector<const Figure*> selected;
  for (const std::string& name : args.positional()) {
    const auto it = std::find_if(figures().begin(), figures().end(),
                                 [&](const Figure& f) { return name == f.name; });
    if (it == figures().end()) {
      std::fprintf(stderr, "repro: unknown figure '%s'. Usage: repro [NAME...]; figures:\n",
                   name.c_str());
      for (const auto& f : figures()) std::fprintf(stderr, "  %-26s %s\n", f.name, f.title);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const auto& f : figures()) selected.push_back(&f);
  }

  std::size_t failed = 0;
  for (const Figure* f : selected) {
    const auto failures = run(*f);
    std::fflush(stdout);  // keep each failure next to its figure's output
    for (const auto& failure : failures) {
      std::fprintf(stderr, "repro: %s: %s\n", f->name, failure.c_str());
      ++failed;
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "repro: %zu check(s) failed\n", failed);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, {}, run_figures);
}
