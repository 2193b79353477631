// reasched_service - the online scheduling daemon: an RJMS-shaped JSON-lines
// protocol over stdin/stdout in front of the discrete-event engine.
//
//   reasched_service --method fcfs --seed 42
//   reasched_service --scenario bursty_idle --batch-jobs 100 --batches 2
//   reasched_service --restore snap.json          # resume a checkpoint
//
// Protocol (one JSON object per line; see src/service/protocol.hpp):
//   {"op":"submit","job":{"duration":60,"nodes":4}}
//   {"op":"advance","to":3600}
//   {"op":"query"} / {"op":"query","id":1} / {"op":"cancel","id":1}
//   {"op":"checkpoint","path":"snap.json"}
//   {"op":"drain"} / {"op":"shutdown"}
//
// --trace-out writes the decision trace (exact times) on exit - the
// artifact CI diffs bit-for-bit between an uninterrupted session and a
// checkpoint/kill/restore/resume one.
//
// Telemetry (all observe-only; decisions are bit-identical with or without):
//   --obs                 enable the metrics registry + span tracer
//   --obs-trace-out PATH  write a Chrome trace-event JSON (Perfetto) on exit
//   --runlog-out PATH     stream one row per completed job (.jsonl or CSV)
//   {"op":"stats"}        live registry snapshot over the protocol

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics_registry.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: reasched_service [options]\n"
      "  --method SPEC          scheduling method spec (default fcfs)\n"
      "  --seed N               root seed (default 42)\n"
      "  --scenario SPEC        arrival-stream scenario spec (default: no stream)\n"
      "  --batch-jobs N         jobs per stream batch (default 0 = no stream)\n"
      "  --batches N            stream batches; 0 = endless (default 1)\n"
      "  --rate-scale X         arrival-rate multiplier (default 1.0)\n"
      "  --enforce-walltime     kill jobs at their walltime estimate\n"
      "  --restore PATH         resume from a snapshot (overrides the flags above)\n"
      "  --trace-out PATH       write the decision trace (JSON lines) on exit\n"
      "  --obs                  enable telemetry (metrics registry + span tracer)\n"
      "  --obs-trace-out PATH   write a Chrome trace-event JSON on exit (implies --obs)\n"
      "  --runlog-out PATH      stream completed-job rows (.jsonl = JSON lines, else CSV)\n");
}

/// A count flag: an integer in [0, INT_MAX] (what a snapshot can restore),
/// else std::invalid_argument. Negative values must not wrap to SIZE_MAX -
/// `--batches -1` would otherwise be a finite stream that never ends.
std::size_t count_flag(const reasched::util::CliArgs& args, const char* name,
                       long long fallback) {
  const long long n = args.get_int(name, fallback);
  if (n < 0 || n > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(reasched::util::format(
        "--%s must be an integer in [0, %d] (got %lld)", name,
        std::numeric_limits<int>::max(), n));
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reasched;
  const util::CliArgs args(argc, argv);
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  std::unique_ptr<service::ServiceEngine> engine;
  try {
    if (args.has("restore")) {
      engine = service::load_snapshot(args.get("restore", ""));
    } else {
      service::ServiceConfig config;
      config.method = harness::MethodSpec::parse(args.get("method", "fcfs"));
      config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
      config.engine.enforce_walltime = args.has("enforce-walltime");
      const std::size_t batch_jobs = count_flag(args, "batch-jobs", 0);
      const std::size_t batches = count_flag(args, "batches", 1);
      if (batch_jobs > 0) {
        config.stream = workload::make_stream_spec(args.get("scenario", "hetero_mix"),
                                                   batch_jobs, batches,
                                                   args.get_double("rate-scale", 1.0));
      }
      engine = std::make_unique<service::ServiceEngine>(config);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reasched_service: %s\n", e.what());
    return 1;
  }

  if (args.has("obs") || args.has("obs-trace-out")) obs::set_enabled(true);
  if (args.has("runlog-out")) {
    // Attached after construction, so it works for --restore sessions too
    // (telemetry is not part of the snapshot: observe-only state).
    engine->set_runlog(std::make_shared<obs::RunLog>(
        obs::make_file_sink(args.get("runlog-out", "")), service::ServiceEngine::runlog_columns()));
  }

  service::run_service_loop(*engine, std::cin, std::cout);

  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "");
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "reasched_service: cannot open %s\n", path.c_str());
      return 1;
    }
    f << service::render_decision_trace(engine->schedule_view());
  }
  if (args.has("obs-trace-out")) {
    try {
      obs::TraceRecorder::global().save_chrome_trace(args.get("obs-trace-out", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reasched_service: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
