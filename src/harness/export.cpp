#include "harness/export.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json_writer.hpp"
#include "util/string_utils.hpp"

namespace reasched::harness {

util::CsvTable schedule_to_csv(const sim::ScheduleResult& result) {
  util::CsvTable t({"job_id", "user", "group", "nodes", "memory_gb", "submit", "start",
                    "end", "wait", "turnaround"});
  for (const auto& c : result.completed) {
    t.add_row({std::to_string(c.job.id), std::to_string(c.job.user),
               std::to_string(c.job.group), std::to_string(c.job.nodes),
               util::format("%.3f", c.job.memory_gb), util::format("%.3f", c.job.submit_time),
               util::format("%.3f", c.start_time), util::format("%.3f", c.end_time),
               util::format("%.3f", c.wait_time()), util::format("%.3f", c.turnaround_time())});
  }
  return t;
}

util::CsvTable decisions_to_csv(const sim::ScheduleResult& result) {
  util::CsvTable t({"time", "action", "job_id", "accepted", "thought_summary", "feedback"});
  for (const auto& d : result.decisions) {
    std::string thought = d.thought;
    const auto newline = thought.find('\n');
    if (newline != std::string::npos) thought.resize(newline);
    t.add_row({util::format("%.3f", d.time), sim::to_string(d.action.type),
               std::to_string(d.action.job_id), d.accepted ? "1" : "0", thought,
               d.feedback});
  }
  return t;
}

util::CsvTable overhead_to_csv(const OverheadSummary& overhead,
                               const sim::ScheduleResult& result) {
  (void)result;
  util::CsvTable t({"call_index", "latency_s"});
  for (std::size_t i = 0; i < overhead.latencies.size(); ++i) {
    t.add_row({std::to_string(i), util::format("%.4f", overhead.latencies[i])});
  }
  return t;
}

namespace {

std::string run_to_json_impl(const RunOutcome& outcome, const std::string& method_name,
                             const MethodSpec* spec,
                             const workload::ScenarioSpec* scenario = nullptr) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("method", method_name);
  if (spec != nullptr) w.kv("method_spec", spec->to_string());
  if (scenario != nullptr) {
    w.kv("scenario", workload::scenario_label(*scenario));
    w.kv("scenario_spec", scenario->to_string());
  }

  w.key("metrics").begin_object();
  for (const auto metric : metrics::all_metrics()) {
    w.kv(metrics::to_string(metric), outcome.metrics.get(metric));
  }
  w.kv("energy_kwh", outcome.metrics.energy_kwh);
  w.end_object();

  w.key("counters")
      .begin_object()
      .kv("decisions", outcome.schedule.n_decisions)
      .kv("invalid_actions", outcome.schedule.n_invalid_actions)
      .kv("forced_delays", outcome.schedule.n_forced_delays)
      .kv("backfills", outcome.schedule.n_backfills)
      .kv("final_time", outcome.schedule.final_time)
      .end_object();

  w.key("schedule").begin_array();
  for (const auto& c : outcome.schedule.completed) {
    w.begin_object()
        .kv("job", c.job.id)
        .kv("user", c.job.user)
        .kv("nodes", c.job.nodes)
        .kv("memory_gb", c.job.memory_gb)
        .kv("submit", c.job.submit_time)
        .kv("start", c.start_time)
        .kv("end", c.end_time)
        .end_object();
  }
  w.end_array();

  if (outcome.overhead) {
    const auto& o = *outcome.overhead;
    w.key("overhead")
        .begin_object()
        .kv("calls", o.n_calls)
        .kv("successful", o.n_successful)
        .kv("total_elapsed_s", o.total_elapsed_s)
        .kv("prompt_tokens", o.prompt_tokens)
        .kv("completion_tokens", o.completion_tokens)
        .key("latencies_s")
        .begin_array();
    for (const double l : o.latencies) w.value(l);
    w.end_array().end_object();
  } else {
    w.key("overhead").null();
  }
  w.end_object();
  return w.str();
}

}  // namespace

std::string run_to_json(const RunOutcome& outcome, const std::string& method_name) {
  // A name that parses as a spec of a registered method is a spec however
  // it arrived (literal, CLI string, config file) - export it losslessly.
  // Registry display labels ("FCFS", "Claude 3.7?...") never parse as
  // registered specs (uppercase/spaces), so labels stay plain labels.
  try {
    const MethodSpec spec = MethodSpec::parse(method_name);
    if (MethodRegistry::instance().find(spec.name) != nullptr) {
      return run_to_json(outcome, spec);
    }
  } catch (const MethodSpecError&) {
    // Not spec grammar - a plain label.
  }
  return run_to_json_impl(outcome, method_name, nullptr);
}

std::string run_to_json(const RunOutcome& outcome, const MethodSpec& method) {
  return run_to_json_impl(outcome, method_label(method), &method);
}

std::string run_to_json(const RunOutcome& outcome, const char* method_name_or_spec) {
  return run_to_json(outcome, std::string(method_name_or_spec));
}

std::string run_to_json(const RunOutcome& outcome, const MethodSpec& method,
                        const workload::ScenarioSpec& scenario) {
  return run_to_json_impl(outcome, method_label(method), &method, &scenario);
}

void save_run_json(const RunOutcome& outcome, const std::string& method_name,
                   const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_run_json: cannot open " + path);
  f << run_to_json(outcome, method_name);
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
