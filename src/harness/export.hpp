#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "util/csv.hpp"
#include "workload/scenario_spec.hpp"

namespace reasched::harness {

/// Persistence for downstream analysis: everything a run produced, in
/// machine-readable form. bench/repro uses the CSV side; the JSON
/// export bundles schedule + decisions + metrics + overhead into a single
/// self-describing document per run.

/// One row per completed job: id, user, resources, submit/start/end,
/// wait/turnaround.
util::CsvTable schedule_to_csv(const sim::ScheduleResult& result);

/// One row per decision: time, action, accepted, thought (first line),
/// feedback.
util::CsvTable decisions_to_csv(const sim::ScheduleResult& result);

/// One row per LLM call: sim time, action, accepted, latency, tokens.
util::CsvTable overhead_to_csv(const OverheadSummary& overhead,
                               const sim::ScheduleResult& result);

/// Full run bundle as a JSON document (schedule, counters, metrics,
/// optional overhead). A string that parses as a spec of a registered
/// method - however it arrived: literal, CLI value, config file - exports
/// through the spec path below, so the "method_spec" field is never
/// silently dropped; anything else (display labels like "Claude 3.7",
/// which never parse as registered specs) is a plain label.
std::string run_to_json(const RunOutcome& outcome, const std::string& method_name);

/// Spec-keyed variant: labels the document with the presentation name and
/// additionally records the canonical spec string ("method_spec"), so a
/// parameterized variant (`opt:portfolio?window=sjf:64`) stays losslessly
/// reconstructible from its export.
std::string run_to_json(const RunOutcome& outcome, const MethodSpec& method);

/// Disambiguates string literals (both std::string and MethodSpec convert
/// from const char*); same spec-or-label handling as the std::string form.
std::string run_to_json(const RunOutcome& outcome, const char* method_name_or_spec);

/// Cell-keyed variant: additionally labels the document with the scenario
/// axis ("scenario" presentation label + canonical "scenario_spec"
/// string), so a sweep cell - perturbed/mixed/piped workload variants
/// included - stays losslessly reconstructible from its export. This is
/// the natural `run_sweep_streaming` on_cell exporter.
std::string run_to_json(const RunOutcome& outcome, const MethodSpec& method,
                        const workload::ScenarioSpec& scenario);

/// Convenience: write run_to_json to a file.
void save_run_json(const RunOutcome& outcome, const std::string& method_name,
                   const std::string& path);

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
