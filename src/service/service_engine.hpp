#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/method_spec.hpp"
#include "metrics/metrics.hpp"
#include "obs/runlog.hpp"
#include "sim/engine_core.hpp"
#include "workload/arrival_stream.hpp"

namespace reasched::service {

/// Everything needed to (re)build a service session from scratch: the
/// scheduling method, the engine knobs, the root seed and the optional
/// arrival stream. A snapshot is exactly this config plus the op log - the
/// deterministic-replay checkpoint model (see snapshot.hpp).
struct ServiceConfig {
  harness::MethodSpec method = "fcfs";
  sim::EngineConfig engine;
  std::uint64_t seed = 0;
  /// Streamed arrival source; `stream.batch_jobs == 0` means none (clients
  /// submit every job). The engine runs on
  /// `workload::effective_cluster(stream.scenario, engine.cluster)` so
  /// `cluster?...` pipeline overrides behave exactly as in the batch sweep.
  workload::StreamSpec stream;
};

/// One RJMS request (codec: service/protocol.hpp). The session logs its
/// submits, cancels, advances and drains; that op log is the mutable half of
/// a checkpoint: replaying it against a fresh ServiceEngine built from the
/// same ServiceConfig reproduces the session bit-for-bit (every component -
/// engine, schedulers, solvers, generators - is deterministic, which the
/// determinism lint enforces statically).
struct Request {
  enum class Op { kSubmit, kQuery, kCancel, kAdvance, kDrain, kCheckpoint, kStats, kShutdown };
  Op op = Op::kQuery;
  bool has_id = false;  ///< kQuery: id present?
  sim::JobId id = 0;    ///< kQuery / kCancel
  double to = 0.0;      ///< kAdvance
  sim::Job job{};       ///< kSubmit (logged post-normalization: id assigned)
  std::string path{};   ///< kCheckpoint
};

/// The op's wire name ("submit", ...); defined with the codec, protocol.cpp.
const char* to_string(Request::Op op);

/// Aggregate session counters for `query` responses and smoke checks.
struct ServiceStatus {
  double clock = 0.0;       ///< advance watermark (client time)
  double engine_now = 0.0;  ///< last processed event time
  std::uint64_t steps = 0;
  std::size_t n_admitted = 0;  ///< jobs the engine knows (any state)
  std::size_t n_buffered = 0;  ///< accepted, not yet handed to the engine
  std::size_t n_waiting = 0;
  std::size_t n_running = 0;
  std::size_t n_completed = 0;
  std::size_t n_cancelled = 0;
  std::size_t n_decisions = 0;
  std::size_t stream_emitted = 0;
  bool drained = false;
};

/// Result of drain(): the finished schedule plus its metrics.
struct DrainResult {
  metrics::MetricSet metrics;
  sim::ScheduleResult schedule;
};

/// The online scheduling session: an RJMS-shaped facade over
/// sim::EngineCore. Clients submit/cancel jobs and advance simulated time;
/// a configured ArrivalStream feeds additional jobs as the clock moves. All
/// externally-visible mutations go through the four logged operations
/// (submit, cancel, advance, drain), which is what makes
/// checkpoint/restart exact: config + op log fully determine the state.
///
/// Ordering contract: the engine's job table appends in arrival order, so
/// the service holds accepted jobs in a (submit_time, id)-ordered buffer
/// and only admits them to the engine when the clock passes their submit
/// time. External submissions are normalized to `submit_time >= clock`;
/// client-chosen ids that would land behind the admission watermark are
/// rejected at submit (choose a larger id or let the service assign one).
/// Dependencies must reference already-accepted, non-cancelled jobs
/// (backward in arrival order) - arbitrary forward DAGs remain a
/// batch-mode (sim::Engine::run) feature.
class ServiceEngine {
 public:
  explicit ServiceEngine(ServiceConfig config);

  /// Accept one job. `job.id == 0` lets the service assign the next id;
  /// a non-zero id is kept (replay fidelity) if unused and ahead of the
  /// admission watermark. `submit_time` is clamped up to the clock. Returns
  /// the assigned id. Throws std::invalid_argument on malformed jobs,
  /// duplicate ids, capacity-impossible requests or bad dependencies.
  sim::JobId submit(sim::Job job);

  /// Withdraw `id` and, transitively, every dependent that can no longer
  /// run - whether buffered or already inside the engine. Returns the
  /// cancelled ids (empty when the job is running/completed/already
  /// cancelled: nothing changes). Throws for unknown ids.
  std::vector<sim::JobId> cancel(sim::JobId id);

  /// Advance simulated time to `t` (monotone): pump stream arrivals with
  /// submit_time <= t, admit buffered jobs, process every event up to t.
  /// Jobs left waiting stay queued for the next advance - with a live
  /// session the engine never forces livelock starts.
  void advance_to(double t);

  /// Run the session to completion: flush the entire stream and buffer,
  /// drop the more-arrivals hint (Stop becomes legal, the terminal query
  /// fires) and step until no events remain. Batch-equivalent: a drain of
  /// jobs submitted at clock 0 executes the identical per-step code path
  /// as sim::Engine::run over the same jobs. Throws std::logic_error on
  /// endless streams (max_batches == 0). The session becomes kDrained.
  DrainResult drain();

  /// Re-apply one logged operation (snapshot restore path): submit, cancel,
  /// advance or drain. Throws std::invalid_argument naming any other op.
  void apply(const Request& op);

  ServiceStatus status() const;
  /// Lifecycle of a job the service knows; throws for unknown ids.
  sim::JobState job_state(sim::JobId id) const;

  // LINT-ALLOW(wallclock): session-clock accessor declaration, not C clock()
  double clock() const { return clock_; }
  bool drained() const { return drained_; }
  const ServiceConfig& config() const { return config_; }
  const std::vector<Request>& ops() const { return ops_; }
  const sim::EngineCore& core() const { return *core_; }
  const sim::Scheduler& scheduler() const { return *scheduler_; }
  /// The cluster the engine actually runs (stream `cluster?...` overrides
  /// applied).
  const sim::ClusterSpec& effective_cluster() const { return engine_config_.cluster; }
  /// Accepted-but-not-admitted jobs in admission ((submit_time, id)) order.
  const std::map<std::pair<double, sim::JobId>, sim::Job>& buffered() const { return buffer_; }
  /// Every cancellation the session performed, in application order.
  const std::vector<sim::JobId>& cancelled_log() const { return cancelled_log_; }
  /// Schedule state for traces: the drained outcome when finished, the
  /// engine's in-progress result otherwise.
  const sim::ScheduleResult& schedule_view() const;

  /// FNV-1a 64 digest over the observable session state (clock, buffer,
  /// job table, pending events, running allocations, result records; all
  /// doubles hashed by bit pattern). Two sessions with equal digests have
  /// executed bit-identically; snapshots store it and restore verifies it.
  /// Telemetry state is deliberately excluded: observability must never
  /// alter what two sessions consider "identical".
  std::uint64_t state_digest() const;

  /// Publish the current session state (clock, queue depths, decision
  /// counters, the scheduler's own counters) as gauges in the global
  /// metric registry - the live half of a `stats` response. Works whether
  /// or not obs::enabled(): an explicit stats request implies the caller
  /// wants a snapshot. Observe-only; session state is untouched.
  void publish_obs() const;

  /// Attach a streaming run log: one row per newly completed job, appended
  /// as advances/drains complete (see obs::RunLog for the degrade-on-failure
  /// contract). Pass nullptr to detach.
  void set_runlog(std::shared_ptr<obs::RunLog> runlog) { runlog_ = std::move(runlog); }
  /// Columns of the per-completion run-log rows.
  static std::vector<std::string> runlog_columns();

 private:
  void ensure_accepting(const char* op) const;
  bool known_id(sim::JobId id) const;
  void pump_stream(double t);
  void flush_buffer(double t);
  void cascade_buffer_cancel(std::vector<sim::JobId>& cancelled);
  DrainResult finish_drain();
  /// Append run-log rows for completions past runlog_emitted_ (observe-only;
  /// called after advances and before finish() moves the result out).
  void emit_runlog_rows(const sim::ScheduleResult& result);

  ServiceConfig config_;
  sim::EngineConfig engine_config_;  ///< config_.engine with effective cluster
  std::unique_ptr<sim::Scheduler> scheduler_;
  std::unique_ptr<sim::EngineCore> core_;
  std::optional<workload::ArrivalStream> stream_;
  /// Stream-internal id -> assigned global id (dependency remapping).
  std::map<sim::JobId, sim::JobId> stream_to_global_;

  std::map<std::pair<double, sim::JobId>, sim::Job> buffer_;
  std::map<sim::JobId, double> buffered_ids_;  ///< id -> buffered submit time
  std::set<sim::JobId> cancelled_ids_;
  std::vector<sim::JobId> cancelled_log_;
  std::pair<double, sim::JobId> admit_watermark_{-1.0, 0};

  std::vector<Request> ops_;
  std::optional<DrainResult> outcome_;
  double clock_ = 0.0;
  sim::JobId next_id_ = 1;
  bool drained_ = false;

  /// Streaming run log (optional; telemetry only - absent from the digest
  /// and the op log by design).
  std::shared_ptr<obs::RunLog> runlog_;
  std::size_t runlog_emitted_ = 0;  ///< completions already written
};

}  // namespace reasched::service
