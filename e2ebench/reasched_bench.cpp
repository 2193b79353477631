// reasched_bench - the end-to-end benchmark program. One process runs one
// workload on inputs generated from --seed and prints one JSON line: the
// metrics, the digest of the workload's output, the operation counts and the
// named correctness checks. run.py builds this program, runs it and turns
// that line into the benchmark's result (see README.md in this directory).
//
//   reasched_bench --workload NAME --seed N --seconds S [--trace] [--smoke]
//                  [--daemon PATH --workdir DIR]
//
// Workloads: rjms_easy, agent_trace, opt_backlog, paper_panel. Without
// --trace the run measures the end-to-end metrics. With --trace it runs the
// same work untraced and with timers at every layer boundary, called from
// here around the public functions of each src/ layer, and reports the
// per-layer split. rjms_easy needs --daemon (the reasched_service binary)
// and --workdir (where the request file is written) when traced.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/react_agent.hpp"
#include "harness/experiment.hpp"
#include "harness/methods.hpp"
#include "harness/sweep.hpp"
#include "llm/simulated_reasoner.hpp"
#include "metrics/metrics.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "sim/engine_core.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"

extern char** environ;

using namespace reasched;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double s_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Untraced runs repeat their work at least this many times.
constexpr int kMinPasses = 3;

/// The workload definitions. Sizes are the full benchmark; --smoke shrinks
/// them to a few seconds in total.
const char* const kRjmsScenario = "bursty_idle?rate_scale=0.7";
const char* const kAgentScenario = "hetero_mix";
const char* const kAgentMethod = "agent:claude37?window=arrival:32";
const char* const kOptScenario = "hetero_mix?rate_scale=2";
const char* const kOptMethod = "opt:portfolio?window=sjf:64";

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string daemon;
  std::string workdir;
};

/// What one run reports: flat metrics, the output digest, operation counts
/// and named pass/fail checks.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }

  std::string to_json(const Options& opt) const {
    util::JsonWriter w;
    w.begin_object().kv("workload", opt.workload).kv("trace", opt.trace);
    w.kv("digest", util::format("%016llx", static_cast<unsigned long long>(digest)));
    w.kv("attempted", attempted).kv("failed", failed);
    w.key("checks").begin_object();
    for (const auto& [name, ok] : checks) w.kv(name, ok);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [name, value] : metrics) w.kv_exact(name, value);
    w.end_object().end_object();
    return w.str();
  }
};

// ---------------------------------------------------------------------------
// Timing. Other tenants of a shared host change a machine's speed: on the
// 4-vCPU Xeon VM the first numbers come from, one fixed piece of work took
// from 0.16 s to 0.29 s depending on the minute, in episodes lasting seconds
// to over a minute, on one core or on all. Two measures keep that out of
// the end-to-end metrics:
//  - calibration: the work is cut into segments of at least 20 ms, a fixed
//    kernel is timed at each cut (the faster of two runs), and every step
//    in a segment is scaled by the kernel's reference time over its mean
//    time at the segment's two ends;
//  - step minima: the work is deterministic, so every pass takes the same
//    steps; each step keeps its fastest calibrated time over the passes.

/// One run of the calibration kernel, in ns: fixed work on the C and C++
/// standard libraries only, so no change to this repository can make it
/// faster or slower. It formats, parses and sorts numbers, then builds a
/// text line by line, scans and copies it - the kind of work the protocol
/// codec and the agent's prompt building do. The text part is what makes
/// it slow down with the workloads: measured against the agent over two
/// minutes of changing load, pass times varied by 26-36% (IQR) raw, 11-12%
/// scaled by the number part alone, 2-5% scaled by the whole kernel.
double kernel_ns() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::size_t round_trips = 0;
  char buf[64];
  for (int i = 0; i < 150; ++i) {
    const double d = static_cast<double>(next() % 100000000) / 1024.0;
    std::snprintf(buf, sizeof buf, "%.17g", d);
    round_trips += std::strtod(buf, nullptr) == d ? 1 : 0;
  }
  std::vector<std::uint64_t> v(2000);
  for (std::uint64_t& e : v) e = next();
  std::sort(v.begin(), v.end());  // total-order: plain integers

  std::string text;
  for (int i = 0; i < 300; ++i) {
    const int n = std::snprintf(buf, sizeof buf, "job %llu nodes %llu wall %.1f\n",
                                static_cast<unsigned long long>(next() % 100000),
                                static_cast<unsigned long long>(next() % 64),
                                static_cast<double>(next() % 100000) / 10.0);
    text.append(buf, static_cast<std::size_t>(n));
  }
  const std::string copy = text;
  const auto lines = std::count(copy.begin(), copy.end(), '\n');
  if (round_trips != 150 || !std::is_sorted(v.begin(), v.end()) || lines != 300) {
    throw std::logic_error("calibration kernel miscomputed");
  }
  return ns_since(t0);
}

/// The faster of two kernel_ns() runs on an unloaded core of the reference
/// machine, a 4-vCPU Xeon VM (its fastest observed value; 450-500 us was
/// typical there under load from other tenants). Calibrated times are
/// seconds of that machine unloaded.
constexpr double kKernelRefNs = 275000.0;

class Calibrator;

/// Per-step times of a deterministic pass, kept as the minimum over passes.
/// Steps are either marked on a timeline (mark(): the step since the
/// previous mark) or timed elsewhere (add()). `consistent()` says whether
/// every pass took the same number of steps.
class StepMins {
 public:
  /// A timeline whose marks are where `calibrator` may probe.
  explicit StepMins(Calibrator* calibrator = nullptr) : calibrator_(calibrator) {}

  void start_pass() {
    pass_.clear();
    calibrated_ = 0;
    last_ = Clock::now();
  }
  inline void mark();
  void add(double ns) { pass_.push_back(ns); }
  /// Leave the time since the last mark out of the next step.
  void skip() { last_ = Clock::now(); }
  /// Scale the steps recorded since the previous call by `factor`.
  void calibrate(double factor) {
    for (std::size_t i = calibrated_; i < pass_.size(); ++i) pass_[i] *= factor;
    calibrated_ = pass_.size();
  }
  void end_pass() {
    if (passes_++ == 0) {
      mins_ = pass_;
    } else if (pass_.size() != mins_.size()) {
      consistent_ = false;
    } else {
      for (std::size_t i = 0; i < mins_.size(); ++i) mins_[i] = std::min(mins_[i], pass_[i]);
    }
  }

  double total_s() const { return util::sum(mins_) / 1e9; }
  const std::vector<double>& mins() const { return mins_; }
  bool consistent() const { return consistent_; }

 private:
  Calibrator* calibrator_;
  std::vector<double> pass_;
  std::vector<double> mins_;
  std::size_t calibrated_ = 0;
  int passes_ = 0;
  bool consistent_ = true;
  Clock::time_point last_;
};

/// Probes the kernel at step boundaries at least 20 ms apart and scales
/// the steps its StepMins recorded in between.
class Calibrator {
 public:
  void attach(StepMins& steps) { steps_.push_back(&steps); }
  /// Open the first segment; call before the passes' start_pass().
  void start() {
    kernel_ = std::min(kernel_ns(), kernel_ns());
    segment_start_ = Clock::now();
  }
  /// At a mark of `timeline`: probe if the segment is old enough.
  void at_mark(StepMins& timeline) {
    if (s_since(segment_start_) < 0.02) return;
    probe();
    timeline.skip();
  }
  /// Close the last segment; call before the passes' end_pass().
  void finish() { probe(); }

 private:
  void probe() {
    const double kernel = std::min(kernel_ns(), kernel_ns());
    const double factor = 2.0 * kKernelRefNs / (kernel + kernel_);
    for (StepMins* s : steps_) s->calibrate(factor);
    kernel_ = kernel;
    segment_start_ = Clock::now();
  }

  std::vector<StepMins*> steps_;
  double kernel_ = kKernelRefNs;
  Clock::time_point segment_start_;
};

void StepMins::mark() {
  const auto now = Clock::now();
  pass_.push_back(std::chrono::duration<double, std::nano>(now - last_).count());
  last_ = now;
  if (calibrator_ != nullptr) calibrator_->at_mark(*this);
}

/// A calibrated timeline plus calibrated per-decision durations.
struct CalibratedSteps {
  Calibrator calibrator;
  StepMins timeline{&calibrator};
  StepMins decides;

  CalibratedSteps() {
    calibrator.attach(timeline);
    calibrator.attach(decides);
  }
  CalibratedSteps(const CalibratedSteps&) = delete;
  CalibratedSteps& operator=(const CalibratedSteps&) = delete;

  void start_pass() {
    calibrator.start();
    timeline.start_pass();
    decides.start_pass();
  }
  void end_pass() {
    timeline.mark();
    calibrator.finish();
    timeline.end_pass();
    decides.end_pass();
  }
  bool consistent() const { return timeline.consistent() && decides.consistent(); }
};

/// Build the inputs at least three times and for at least 0.2 s; `make`
/// marks the timeline after each step of its work, and setup_s is the sum
/// of the per-step minima. Returns the last inputs.
template <typename Make>
auto timed_setup(Report& report, Make&& make) {
  CalibratedSteps steps;
  const auto t0 = Clock::now();
  int reps = 0;
  auto build = [&] {
    ++reps;
    steps.start_pass();
    auto inputs = make(steps.timeline);
    steps.end_pass();
    return inputs;
  };
  auto inputs = build();
  while (reps < 3 || (s_since(t0) < 0.2 && reps < 50)) inputs = build();
  report.metrics["setup_s"] = steps.timeline.total_s();
  report.check("setup_deterministic", steps.consistent());
  return inputs;
}

/// Repeat `pass` until `seconds` have passed, at least `min_passes` times.
template <typename Pass>
void for_seconds(double seconds, int min_passes, Pass&& pass) {
  const auto t0 = Clock::now();
  for (int i = 0; i < min_passes || s_since(t0) < seconds; ++i) pass();
}

/// Peak resident set of this process image so far. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
/// launching process's peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Record peak_rss_mb once, after the first timed pass: the setup plus one
/// pass, the same work in every run of a workload.
void note_peak_rss(Report& report) {
  if (report.metrics.count("peak_rss_mb") == 0) report.metrics["peak_rss_mb"] = peak_rss_mb();
}

void report_latency(Report& report, const std::vector<double>& samples_ns) {
  report.metrics["latency_p50_us"] = util::quantile(samples_ns, 0.50) / 1e3;
  report.metrics["latency_p99_us"] = util::quantile(samples_ns, 0.99) / 1e3;
}

// ---------------------------------------------------------------------------
// Layer timers. Every timer sits in this file, around a call into a layer's
// public API; src/ is not instrumented.

enum Layer { kCodec, kService, kSim, kSched, kOpt, kCore, kLlm, kMetrics, kHarness };
constexpr int kNumLayers = 9;

const char* layer_name(int layer) {
  switch (layer) {
    case kCodec: return "codec";
    case kService: return "service";
    case kSim: return "sim";
    case kSched: return "sched";
    case kOpt: return "opt";
    case kCore: return "core";
    case kLlm: return "llm";
    case kMetrics: return "metrics";
    default: return "harness";
  }
}

/// Self time per layer, in ns.
struct Split {
  double ns[kNumLayers] = {};
  double total() const {
    double t = 0.0;
    for (const double v : ns) t += v;
    return t;
  }
};

/// The src/ layer that owns a method's decide(): agents live in core (their
/// client time is charged to llm separately), the optimizer portfolio in
/// opt, the queue policies in sched.
Layer policy_layer(const harness::MethodSpec& spec) {
  if (spec.name.rfind("agent:", 0) == 0) return kCore;
  if (spec.name.rfind("opt:", 0) == 0) return kOpt;
  return kSched;
}

/// Timings collected at the engine/policy boundary. Untraced runs set
/// `steps`; traced runs read the other fields.
struct PolicyProbe {
  CalibratedSteps* steps = nullptr;  ///< one timeline step and one duration per decide()
  std::vector<double> decide_ns;     ///< every decide() duration, when `steps` is unset
  double callback_ns = 0.0;          ///< decide + on_feedback + on_accepted + last_thought
  std::size_t waiting_peak = 0;      ///< deepest waiting queue a decide() saw
};

/// Forwarding scheduler that times every callback the engine makes into the
/// wrapped policy. Decisions are the wrapped policy's, unchanged.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, PolicyProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  sim::Action decide(const sim::DecisionContext& ctx) override {
    if (probe_.steps != nullptr) probe_.steps->timeline.mark();
    probe_.waiting_peak = std::max(probe_.waiting_peak, ctx.waiting.size());
    const auto t0 = Clock::now();
    const sim::Action action = inner_->decide(ctx);
    const double ns = ns_since(t0);
    if (probe_.steps != nullptr) {
      probe_.steps->decides.add(ns);
    } else {
      probe_.decide_ns.push_back(ns);
    }
    probe_.callback_ns += ns;
    return action;
  }
  void on_feedback(const std::string& feedback, const sim::DecisionContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->on_feedback(feedback, ctx);
    probe_.callback_ns += ns_since(t0);
  }
  void on_accepted(const sim::Action& action, const sim::DecisionContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->on_accepted(action, ctx);
    probe_.callback_ns += ns_since(t0);
  }
  std::string last_thought() const override {
    const auto t0 = Clock::now();
    std::string thought = inner_->last_thought();
    probe_.callback_ns += ns_since(t0);
    return thought;
  }
  std::string name() const override { return inner_->name(); }
  std::vector<std::pair<std::string, double>> obs_counters() const override {
    return inner_->obs_counters();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  PolicyProbe& probe_;
};

struct LlmProbe {
  double ns = 0.0;
  std::size_t calls = 0;
  double prompt_tokens = 0.0;
};

/// Forwarding llm::Client that times complete() and counts prompt tokens.
class TimedClient final : public llm::Client {
 public:
  TimedClient(std::shared_ptr<llm::Client> inner, LlmProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  llm::Response complete(const llm::Request& request) override {
    const auto t0 = Clock::now();
    llm::Response response = inner_->complete(request);
    probe_.ns += ns_since(t0);
    ++probe_.calls;
    probe_.prompt_tokens += response.prompt_tokens;
    return response;
  }
  std::string model_name() const override { return inner_->model_name(); }
  void reset() override { inner_->reset(); }

 private:
  std::shared_ptr<llm::Client> inner_;
  LlmProbe& probe_;
};

/// The one probe behind the "timed:" methods registered below.
PolicyProbe& registry_probe() {
  static PolicyProbe probe;
  return probe;
}

/// Register "timed:<spec>" for every spec the workloads run: the registry's
/// own scheduler for <spec>, inside a TimedScheduler that reports to
/// registry_probe(). This is how decisions are timed on the public
/// run_method path, and how the traced rjms_easy session sees inside
/// ServiceEngine::advance_to. Must run before the registry's first lookup.
void register_timed_methods() {
  std::vector<std::string> specs = {"easy", kAgentMethod, kOptMethod};
  for (const harness::MethodSpec& m : harness::paper_methods()) specs.push_back(m.to_string());
  for (const std::string& spec : specs) {
    harness::MethodInfo info;
    info.name = "timed:" + spec;
    info.display_label = info.name;
    info.doc = "benchmark timing wrapper around " + spec;
    const harness::MethodSpec inner = harness::MethodSpec::parse(spec);
    info.build = [inner](const harness::MethodSpec&, std::uint64_t seed) {
      std::unique_ptr<sim::Scheduler> scheduler = harness::make_scheduler(inner, seed);
      return std::unique_ptr<sim::Scheduler>(
          std::make_unique<TimedScheduler>(std::move(scheduler), registry_probe()));
    };
    harness::MethodRegistry::instance().add(std::move(info));
  }
}

harness::MethodSpec timed(const harness::MethodSpec& spec) {
  return harness::MethodSpec("timed:" + spec.to_string(), {});
}

/// The scheduler the traced runs use: agents are assembled by hand from
/// core::ReActAgent around a TimedClient wrapping the SimulatedReasoner the
/// registry would use (same profile, seed and window), so model time can be
/// told apart from agent time; every other method comes from the registry.
std::unique_ptr<sim::Scheduler> build_traced(const harness::MethodSpec& spec, std::uint64_t seed,
                                             PolicyProbe& probe, LlmProbe& llm_probe) {
  static const std::map<std::string, llm::ModelProfile (*)()> profiles = {
      {"agent:claude37", llm::claude37_profile},
      {"agent:o4mini", llm::o4mini_profile},
      {"agent:fastlocal", llm::fast_local_profile},
  };
  const auto it = profiles.find(spec.name);
  if (it == profiles.end()) {
    return std::make_unique<TimedScheduler>(harness::make_scheduler(spec, seed), probe);
  }
  sim::PlanningWindow auto_window;
  auto_window.top_k = 32;
  core::AgentConfig config;
  config.window = harness::ParamReader(spec).get_window("window", auto_window);
  config.seed = seed;
  const llm::ModelProfile profile = it->second();
  auto client = std::make_shared<TimedClient>(
      std::make_shared<llm::SimulatedReasoner>(profile, seed), llm_probe);
  return std::make_unique<TimedScheduler>(
      std::make_unique<core::ReActAgent>(std::move(client), profile, config), probe);
}

/// Optimizer work counters summed over every opt scheduler of a run.
struct OptCounters {
  double evaluations = 0, cutoff_hits = 0, steps_decoded = 0, steps_reused = 0, bnb_nodes = 0;

  void add(const sim::Scheduler& scheduler) {
    for (const auto& [key, value] : scheduler.obs_counters()) {
      if (key == "opt/evaluations") evaluations += value;
      if (key == "opt/cutoff_hits") cutoff_hits += value;
      if (key == "opt/steps_decoded") steps_decoded += value;
      if (key == "opt/steps_reused") steps_reused += value;
      if (key == "opt/bnb_nodes") bnb_nodes += value;
    }
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What a traced run accumulates. The traced side and an untraced copy of
/// the same work run interleaved, request by request or engine step by
/// engine step, so both see the same machine speed: the per-layer parts of
/// the traced side sum to (100 + trace.overhead_pct)% of the untraced time.
struct TraceTotals {
  Split split;  ///< the traced side, by layer
  PolicyProbe probe;
  LlmProbe llm;
  OptCounters opt;
  std::size_t passes = 0;
  std::size_t decisions = 0;
  std::size_t invalid_actions = 0;
  double untraced_ns = 0.0;
};

/// The per-layer metrics every traced workload reports.
void report_split(Report& report, const TraceTotals& t, double generate_s) {
  const double traced_ns = t.split.total();
  for (int l = 0; l < kNumLayers; ++l) {
    report.metrics[std::string("share.") + layer_name(l) + "_pct"] =
        100.0 * t.split.ns[l] / traced_ns;
  }
  const auto n = static_cast<double>(t.decisions);
  report.metrics["workload.generate_ms"] = generate_s * 1e3;
  report.metrics["policy.decide_ns"] = util::mean(t.probe.decide_ns);
  report.metrics["policy.decide_p99_ns"] = util::quantile(t.probe.decide_ns, 0.99);
  report.metrics["sim.self_ns_per_decision"] = t.split.ns[kSim] / n;
  report.metrics["sim.decisions"] = n / static_cast<double>(t.passes);
  report.metrics["sim.waiting_peak"] = static_cast<double>(t.probe.waiting_peak);
  report.metrics["sim.invalid_action_ratio"] = static_cast<double>(t.invalid_actions) / n;
  report.metrics["llm.prompt_tokens_per_call"] =
      ratio(t.llm.prompt_tokens, static_cast<double>(t.llm.calls));
  report.metrics["opt.evals_per_decision"] = t.opt.evaluations / n;
  report.metrics["opt.cutoff_hit_ratio"] = ratio(t.opt.cutoff_hits, t.opt.evaluations);
  report.metrics["opt.step_reuse_ratio"] =
      ratio(t.opt.steps_reused, t.opt.steps_reused + t.opt.steps_decoded);
  report.metrics["opt.bnb_nodes_per_decision"] = t.opt.bnb_nodes / n;
  report.metrics["trace.overhead_pct"] = 100.0 * (traced_ns / t.untraced_ns - 1.0);
}

struct Replays {
  sim::ScheduleResult untraced, traced;
  metrics::MetricSet untraced_metrics, traced_metrics;
};

/// Replay `jobs` twice in lockstep, one engine step of each at a time: with
/// the registry's scheduler and nothing timed inside, and with the traced
/// scheduler and each layer's time charged to it - construction to harness,
/// engine stepping to sim, the policy's callbacks to its layer (less model
/// time, charged to llm), the metric computation to metrics.
Replays replay_lockstep(const std::vector<sim::Job>& jobs, const harness::MethodSpec& method,
                        std::uint64_t seed, const sim::EngineConfig& engine, TraceTotals& t) {
  Replays r;
  auto t0 = Clock::now();
  const std::unique_ptr<sim::Scheduler> plain = harness::make_scheduler(method, seed);
  sim::EngineCore untraced(engine, *plain);
  untraced.load(jobs);
  t.untraced_ns += ns_since(t0);

  t0 = Clock::now();
  const std::unique_ptr<sim::Scheduler> scheduler = build_traced(method, seed, t.probe, t.llm);
  t.split.ns[kHarness] += ns_since(t0);
  t0 = Clock::now();
  sim::EngineCore traced(engine, *scheduler);
  traced.load(jobs);
  t.split.ns[kSim] += ns_since(t0);

  const Layer layer = policy_layer(method);
  for (bool more_untraced = true, more_traced = true; more_untraced || more_traced;) {
    if (more_untraced) {
      t0 = Clock::now();
      more_untraced = untraced.step();
      t.untraced_ns += ns_since(t0);
    }
    if (more_traced) {
      const double callback_before = t.probe.callback_ns;
      const double llm_before = t.llm.ns;
      t0 = Clock::now();
      more_traced = traced.step();
      const double step_ns = ns_since(t0);
      const double callback_ns = t.probe.callback_ns - callback_before;
      const double llm_ns = t.llm.ns - llm_before;
      t.split.ns[kSim] += step_ns - callback_ns;
      t.split.ns[layer] += callback_ns - llm_ns;
      t.split.ns[kLlm] += llm_ns;
    }
  }

  t0 = Clock::now();
  r.untraced = untraced.finish();
  r.untraced_metrics = metrics::compute_metrics(r.untraced, engine.cluster);
  t.untraced_ns += ns_since(t0);
  t0 = Clock::now();
  r.traced = traced.finish();
  t.split.ns[kSim] += ns_since(t0);
  t0 = Clock::now();
  r.traced_metrics = metrics::compute_metrics(r.traced, engine.cluster);
  t.split.ns[kMetrics] += ns_since(t0);

  t.opt.add(*scheduler);
  t.decisions += r.traced.n_decisions;
  t.invalid_actions += r.traced.n_invalid_actions;
  return r;
}

bool same_bits(const metrics::MetricSet& a, const metrics::MetricSet& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t metric_bits_digest(const std::map<harness::Cell, metrics::MetricSet>& cells) {
  std::string bytes;
  for (const auto& [cell, m] : cells) {
    for (const double v : {m.makespan, m.avg_wait, m.avg_turnaround, m.throughput, m.node_util,
                           m.mem_util, m.wait_fairness, m.user_fairness, m.energy_kwh}) {
      char raw[sizeof v];
      std::memcpy(raw, &v, sizeof v);
      bytes.append(raw, sizeof v);
    }
  }
  return util::hash_str(bytes);
}

// ---------------------------------------------------------------------------
// rjms_easy: one closed-loop RJMS client against an in-process session.

struct RjmsInput {
  std::vector<std::string> lines;
  std::size_t submits = 0;
  double generate_s = 0.0;
};

/// The request stream: every generated job as a submit with a
/// service-assigned id; an advance to the latest submit time every 50
/// submits; a status query, a job query and a cancel (ids among the last
/// 100 submitted) every 200; a final drain.
RjmsInput make_rjms_input(std::uint64_t seed, std::size_t n_jobs, StepMins& steps) {
  RjmsInput in;
  const auto t0 = Clock::now();
  const std::vector<sim::Job> jobs =
      workload::generate_scenario(kRjmsScenario, n_jobs, util::derive_seed(seed, "rjms_easy"));
  in.generate_s = s_since(t0);
  steps.mark();
  util::Rng rng(util::derive_seed(seed, "rjms_easy/ops"));
  in.lines.reserve(jobs.size() + jobs.size() / 25 + 1);
  double latest = 0.0;
  for (const sim::Job& generated : jobs) {
    sim::Job job = generated;
    job.id = 0;
    job.dependencies.clear();
    util::JsonWriter w;
    w.begin_object().kv("op", "submit").key("job");
    service::job_to_json(w, job);
    w.end_object();
    in.lines.push_back(w.str());
    latest = std::max(latest, job.submit_time);
    const auto n = static_cast<long long>(++in.submits);  // == the id the service assigns
    if (n % 50 == 0) {
      in.lines.push_back("{\"op\":\"advance\",\"to\":" + util::format_double_exact(latest) + "}");
    }
    if (n % 200 == 0) {
      in.lines.push_back("{\"op\":\"query\"}");
      in.lines.push_back(
          util::format("{\"op\":\"query\",\"id\":%lld}", n - rng.uniform_int(0, 99)));
      in.lines.push_back(
          util::format("{\"op\":\"cancel\",\"id\":%lld}", n - rng.uniform_int(0, 99)));
    }
    if (n % 1000 == 0) steps.mark();
  }
  in.lines.push_back("{\"op\":\"drain\"}");
  return in;
}

service::ServiceConfig rjms_config(std::uint64_t seed, const harness::MethodSpec& method) {
  service::ServiceConfig config;  // the defaults reasched_service runs with
  config.method = method;
  config.seed = seed;
  return config;
}

bool is_error(const std::string& response) { return response.rfind("{\"ok\":false", 0) == 0; }

/// The body of service::run_service_loop without the ostream.
std::string serve(service::ServiceEngine& engine, const std::string& line) {
  try {
    bool shutdown = false;
    return service::handle_request(engine, service::parse_request(line), shutdown);
  } catch (const service::ProtocolError& e) {
    return service::render_error(e.what());
  }
}

/// serve() with each step charged to its layer: the codec (parse_request,
/// render_*), the ServiceEngine's own bookkeeping, and simulated time
/// (advance_to/drain, added to `advance_ns`; the policy's part of it is
/// what the "timed:easy" scheduler reports). Each request must render
/// exactly what handle_request renders.
std::string serve_traced(service::ServiceEngine& engine, const std::string& line, Split& split,
                         double& advance_ns) {
  using Op = service::Request::Op;
  auto t = Clock::now();
  auto lap = [&t](double& into) {
    const auto now = Clock::now();
    into += std::chrono::duration<double, std::nano>(now - t).count();
    t = now;
  };
  try {
    const service::Request request = service::parse_request(line);
    lap(split.ns[kCodec]);
    std::string response;
    switch (request.op) {
      case Op::kSubmit: {
        const sim::JobId id = engine.submit(request.job);
        lap(split.ns[kService]);
        response = service::render_submit(id);
        break;
      }
      case Op::kQuery:
        if (request.has_id) {
          const sim::JobState state = engine.job_state(request.id);
          lap(split.ns[kService]);
          response = service::render_job_state(request.id, state);
        } else {
          const service::ServiceStatus status = engine.status();
          lap(split.ns[kService]);
          response = service::render_status(status);
        }
        break;
      case Op::kCancel: {
        const std::vector<sim::JobId> cancelled = engine.cancel(request.id);
        lap(split.ns[kService]);
        response = service::render_cancel(cancelled);
        break;
      }
      case Op::kAdvance: {
        engine.advance_to(request.to);
        lap(advance_ns);
        const service::ServiceStatus status = engine.status();
        lap(split.ns[kService]);
        response = service::render_advance(status);
        break;
      }
      case Op::kDrain: {
        const service::DrainResult result = engine.drain();
        lap(advance_ns);
        response = service::render_drain(result);
        break;
      }
      default: return service::render_error("op not in the benchmark stream");
    }
    lap(split.ns[kCodec]);
    return response;
  } catch (const std::exception& e) {
    return service::render_error(e.what());
  }
}

/// Pipe `request_path` through the daemon and return everything it wrote.
std::string run_daemon(const std::string& daemon, std::uint64_t seed,
                       const std::string& request_path) {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, request_path.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::vector<std::string> args = {daemon, "--method", "easy", "--seed", std::to_string(seed)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, daemon.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  if (rc != 0) {
    close(out[0]);
    throw std::runtime_error("cannot start " + daemon + ": " + std::strerror(rc));
  }
  std::string output;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(out[0], buf, sizeof buf);
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(out[0]);
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reasched_service exited abnormally");
  }
  return output;
}

Report run_rjms(const Options& opt) {
  Report report;
  const std::size_t n_jobs = opt.smoke ? 2000 : 100000;
  const RjmsInput in = timed_setup(
      report, [&](StepMins& steps) { return make_rjms_input(opt.seed, n_jobs, steps); });
  const harness::MethodSpec easy = "easy";

  std::size_t errors = 0;
  if (!opt.trace) {
    // Each pass is one session; each request is one step.
    CalibratedSteps requests;
    std::string first;
    bool identical = true;
    for_seconds(opt.seconds, kMinPasses, [&] {
      service::ServiceEngine engine(rjms_config(opt.seed, easy));
      std::string stream;
      stream.reserve(in.lines.size() * 48);
      requests.start_pass();
      for (const std::string& line : in.lines) {
        const std::string response = serve(engine, line);
        requests.timeline.mark();
        if (is_error(response)) ++errors;
        stream += response;
        stream += '\n';
      }
      requests.end_pass();
      report.attempted += in.lines.size();
      note_peak_rss(report);
      if (first.empty()) first = stream;
      identical = identical && stream == first;
    });
    report.metrics["jobs_per_s"] = static_cast<double>(in.submits) / requests.timeline.total_s();
    report_latency(report, requests.timeline.mins());
    report.check("sessions_identical", identical && requests.consistent());
    report.digest = util::hash_str(first);

    // Checkpoint/restart: snapshot the session just before its drain,
    // restore it, and require the same state digest and drain response.
    service::ServiceEngine engine(rjms_config(opt.seed, easy));
    for (std::size_t i = 0; i + 1 < in.lines.size(); ++i) serve(engine, in.lines[i]);
    const std::unique_ptr<service::ServiceEngine> restored =
        service::restore_snapshot_text(service::snapshot_to_json(engine));
    report.check("restore_digest", restored->state_digest() == engine.state_digest());
    report.check("restore_drain",
                 serve(*restored, in.lines.back()) == serve(engine, in.lines.back()));
    const service::ServiceStatus status = engine.status();
    report.check("all_jobs_finished", status.n_completed + status.n_cancelled == in.submits);
  } else {
    // An untraced and a traced session (policy "timed:easy") serve the
    // stream in lockstep, request by request.
    TraceTotals t;
    PolicyProbe& probe = registry_probe();
    std::string stream;
    double advance_ns = 0.0;
    bool identical = true;
    for_seconds(opt.seconds, 1, [&] {
      service::ServiceEngine untraced(rjms_config(opt.seed, easy));
      service::ServiceEngine traced(rjms_config(opt.seed, timed(easy)));
      stream.clear();
      for (const std::string& line : in.lines) {
        const auto t0 = Clock::now();
        const std::string response = serve(untraced, line);
        t.untraced_ns += ns_since(t0);
        identical = identical && serve_traced(traced, line, t.split, advance_ns) == response;
        if (is_error(response)) ++errors;
        stream += response;
        stream += '\n';
      }
      t.decisions += traced.schedule_view().n_decisions;
      t.invalid_actions += traced.schedule_view().n_invalid_actions;
      ++t.passes;
      report.attempted += in.lines.size();
    });
    t.split.ns[kSched] = probe.callback_ns;
    t.split.ns[kSim] = advance_ns - probe.callback_ns;
    t.probe.decide_ns = probe.decide_ns;
    t.probe.waiting_peak = probe.waiting_peak;
    report_split(report, t, in.generate_s);
    report.check("traced_stream_identical", identical);
    report.digest = util::hash_str(stream);

    // The same request file through the reasched_service binary.
    const std::string path = opt.workdir + "/rjms_requests.jsonl";
    {
      std::ofstream f(path, std::ios::binary);
      for (const std::string& line : in.lines) f << line << '\n';
      if (!f) throw std::runtime_error("cannot write " + path);
    }
    report.check("daemon_stream_identical", run_daemon(opt.daemon, opt.seed, path) == stream);
    std::remove(path.c_str());
  }
  report.failed += errors;
  report.check("no_error_responses", errors == 0);
  return report;
}

// ---------------------------------------------------------------------------
// agent_trace / opt_backlog: one method replayed over a generated trace.

struct BatchInput {
  std::vector<sim::Job> jobs;
  double generate_s = 0.0;
};

Report run_batch(const Options& opt, const char* scenario, const char* method_text) {
  Report report;
  const std::size_t n_jobs = opt.smoke ? 200 : 3000;
  const BatchInput in = timed_setup(report, [&](StepMins&) {
    const auto t0 = Clock::now();
    BatchInput b;
    b.jobs =
        workload::generate_scenario(scenario, n_jobs, util::derive_seed(opt.seed, method_text));
    b.generate_s = s_since(t0);
    return b;
  });
  const harness::MethodSpec method = harness::MethodSpec::parse(method_text);

  std::size_t missing = 0;
  bool identical = true;
  if (!opt.trace) {
    // Each pass is one replay on the public path; the steps are the
    // stretches between decide() calls.
    CalibratedSteps steps;
    registry_probe().steps = &steps;
    for_seconds(opt.seconds, kMinPasses, [&] {
      steps.start_pass();
      const harness::RunOutcome outcome = harness::run_method(in.jobs, timed(method), opt.seed);
      steps.end_pass();
      report.attempted += in.jobs.size();
      missing += in.jobs.size() - outcome.schedule.completed.size();
      note_peak_rss(report);
      const std::uint64_t digest = util::hash_str(service::render_decision_trace(outcome.schedule));
      identical = identical && (report.digest == 0 || report.digest == digest);
      report.digest = digest;
    });
    report.metrics["jobs_per_s"] = static_cast<double>(in.jobs.size()) / steps.timeline.total_s();
    report_latency(report, steps.decides.mins());
    report.check("replays_identical", identical && steps.consistent());
  } else {
    TraceTotals t;
    for_seconds(opt.seconds, 1, [&] {
      const Replays r = replay_lockstep(in.jobs, method, opt.seed, sim::EngineConfig{}, t);
      const std::string trace = service::render_decision_trace(r.untraced);
      report.digest = util::hash_str(trace);
      identical = identical && service::render_decision_trace(r.traced) == trace;
      identical = identical && same_bits(r.traced_metrics, r.untraced_metrics);
      ++t.passes;
      report.attempted += in.jobs.size();
      missing += in.jobs.size() - r.untraced.completed.size();
    });
    report_split(report, t, in.generate_s);
    report.check("traced_trace_identical", identical);
  }
  report.failed += missing;
  report.check("all_jobs_completed", missing == 0);
  return report;
}

// ---------------------------------------------------------------------------
// paper_panel: the paper's scenario x method x size x repetition grid.

harness::SweepConfig panel_config(const Options& opt) {
  harness::SweepConfig config;
  config.scenarios = workload::paper_scenario_specs();
  config.methods = harness::paper_methods();
  config.job_counts = opt.smoke ? std::vector<std::size_t>{10, 25}
                                : std::vector<std::size_t>{10, 25, 50, 100};
  config.repetitions = opt.smoke ? 1 : 3;
  config.base_seed = opt.seed;
  config.threads = 1;
  return config;
}

struct PanelInput {
  std::vector<harness::Cell> cells;
  std::vector<std::vector<sim::Job>> jobs;  ///< per cell
  std::vector<sim::EngineConfig> engines;   ///< per cell
  double generate_s = 0.0;
};

/// Enumerate the grid as the sweep does and generate every workload once.
PanelInput make_panel_input(const harness::SweepConfig& config, StepMins& steps) {
  PanelInput in;
  for (const auto& scenario : config.scenarios) {
    const sim::EngineConfig engine = harness::cell_engine(config, scenario);
    for (const std::size_t n : config.job_counts) {
      for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        const auto t0 = Clock::now();
        const std::vector<sim::Job> jobs = harness::cell_jobs(config, scenario, n, rep);
        in.generate_s += s_since(t0);
        steps.mark();
        for (const auto& method : config.methods) {
          in.cells.push_back(harness::Cell{scenario, n, method, rep});
          in.jobs.push_back(jobs);
          in.engines.push_back(engine);
        }
      }
    }
  }
  return in;
}

Report run_panel(const Options& opt) {
  Report report;
  const harness::SweepConfig config = panel_config(opt);
  const PanelInput in =
      timed_setup(report, [&](StepMins& steps) { return make_panel_input(config, steps); });

  if (!opt.trace) {
    CalibratedSteps steps;
    registry_probe().steps = &steps;
    std::uint64_t first = 0;
    bool identical = true;
    std::size_t jobs_per_pass = 0;
    for_seconds(opt.seconds, kMinPasses, [&] {
      std::map<harness::Cell, metrics::MetricSet> cells;
      jobs_per_pass = 0;
      steps.start_pass();
      for (std::size_t i = 0; i < in.cells.size(); ++i) {
        const harness::Cell& cell = in.cells[i];
        const harness::RunOutcome outcome = harness::run_method(
            in.jobs[i], timed(cell.method), harness::cell_seed(config, cell), in.engines[i]);
        cells.emplace(cell, outcome.metrics);
        jobs_per_pass += in.jobs[i].size();
        if (outcome.schedule.completed.size() != in.jobs[i].size()) ++report.failed;
      }
      steps.end_pass();
      report.attempted += in.cells.size();
      note_peak_rss(report);
      const std::uint64_t digest = metric_bits_digest(cells);
      identical = identical && (first == 0 || digest == first);
      first = digest;
    });
    report.metrics["jobs_per_s"] = static_cast<double>(jobs_per_pass) / steps.timeline.total_s();
    report_latency(report, steps.decides.mins());
    report.digest = first;
    report.check("passes_identical", identical && steps.consistent());
    // The library's own sweep must produce the same cells. Its results do
    // not depend on the thread count; all cores make the check quicker.
    harness::SweepConfig check = config;
    check.threads = 0;
    report.check("sweep_identical",
                 metric_bits_digest(harness::run_sweep_streaming(check).cells) == report.digest);
  } else {
    TraceTotals t;
    bool identical = true;
    for_seconds(opt.seconds, 1, [&] {
      std::map<harness::Cell, metrics::MetricSet> cells;
      for (std::size_t i = 0; i < in.cells.size(); ++i) {
        const harness::Cell& cell = in.cells[i];
        const Replays r = replay_lockstep(in.jobs[i], cell.method,
                                          harness::cell_seed(config, cell), in.engines[i], t);
        cells.emplace(cell, r.untraced_metrics);
        identical = identical && same_bits(r.traced_metrics, r.untraced_metrics);
        if (r.untraced.completed.size() != in.jobs[i].size()) ++report.failed;
      }
      report.digest = metric_bits_digest(cells);
      ++t.passes;
      report.attempted += in.cells.size();
    });
    report_split(report, t, in.generate_s);
    report.check("traced_cells_identical", identical);
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.has("trace");
  opt.smoke = args.has("smoke");
  opt.daemon = args.get("daemon", "");
  opt.workdir = args.get("workdir", ".");

  try {
    register_timed_methods();
    Report report;
    if (opt.workload == "rjms_easy") {
      if (opt.trace && opt.daemon.empty()) throw std::invalid_argument("--trace needs --daemon");
      report = run_rjms(opt);
    } else if (opt.workload == "agent_trace") {
      report = run_batch(opt, kAgentScenario, kAgentMethod);
    } else if (opt.workload == "opt_backlog") {
      report = run_batch(opt, kOptScenario, kOptMethod);
    } else if (opt.workload == "paper_panel") {
      report = run_panel(opt);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload +
                                  "' (rjms_easy|agent_trace|opt_backlog|paper_panel)");
    }
    std::printf("%s\n", report.to_json(opt).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reasched_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
