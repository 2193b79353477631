#include "service/service_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "harness/methods.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Streaming FNV-1a 64 over 8-byte words (doubles fed by bit pattern).
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix(sim::JobId id) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(id))); }
  void mix(bool b) { mix(static_cast<std::uint64_t>(b ? 1 : 0)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  void mix_job(const sim::Job& j) {
    mix(j.id);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(j.user)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(j.group)));
    mix(j.submit_time);
    mix(j.duration);
    mix(j.walltime);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(j.nodes)));
    mix(j.memory_gb);
    mix(static_cast<std::uint64_t>(j.dependencies.size()));
    for (const sim::JobId dep : j.dependencies) mix(dep);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

ServiceEngine::ServiceEngine(ServiceConfig config)
    : config_(std::move(config)), engine_config_(config_.engine) {
  if (config_.stream.batch_jobs > 0) {
    engine_config_.cluster =
        workload::effective_cluster(config_.stream.scenario, config_.engine.cluster);
  }
  scheduler_ = harness::make_scheduler(config_.method, config_.seed);
  core_ = std::make_unique<sim::EngineCore>(engine_config_, *scheduler_);
  if (config_.stream.batch_jobs > 0) {
    workload::GenerateOptions options;
    options.cluster = engine_config_.cluster;
    stream_.emplace(config_.stream, util::derive_seed(config_.seed, "stream"), options);
  }
}

void ServiceEngine::ensure_accepting(const char* op) const {
  if (drained_) {
    throw std::logic_error(util::format("ServiceEngine: %s on a drained session", op));
  }
}

bool ServiceEngine::known_id(sim::JobId id) const {
  return buffered_ids_.count(id) != 0 || cancelled_ids_.count(id) != 0 ||
         core_->table().contains(id);
}

sim::JobId ServiceEngine::submit(sim::Job job) {
  ensure_accepting("submit");
  if (job.id == 0) job.id = next_id_;
  if (job.id < 0) {
    throw std::invalid_argument(util::format("ServiceEngine: negative job id %d", job.id));
  }
  if (known_id(job.id)) {
    throw std::invalid_argument(util::format("ServiceEngine: duplicate job id %d", job.id));
  }
  if (!job.valid()) {
    throw std::invalid_argument(util::format("ServiceEngine: job %d is malformed", job.id));
  }
  if (!core_->cluster().fits_empty(job)) {
    throw std::invalid_argument(util::format(
        "ServiceEngine: job %d requests %d nodes / %.0f GB, exceeding cluster capacity", job.id,
        job.nodes, job.memory_gb));
  }
  job.submit_time = std::max(job.submit_time, clock_);
  const std::pair<double, sim::JobId> key{job.submit_time, job.id};
  if (key <= admit_watermark_) {
    throw std::invalid_argument(util::format(
        "ServiceEngine: job %d (submit %.3f) is behind the admission watermark; omit the id or "
        "choose one past every admitted job",
        job.id, job.submit_time));
  }
  for (const sim::JobId dep : job.dependencies) {
    if (dep == job.id) {
      throw std::invalid_argument(util::format("ServiceEngine: job %d depends on itself", job.id));
    }
    if (cancelled_ids_.count(dep) != 0) {
      throw std::invalid_argument(
          util::format("ServiceEngine: job %d depends on cancelled job %d", job.id, dep));
    }
    if (const auto it = buffered_ids_.find(dep); it != buffered_ids_.end()) {
      if (std::pair<double, sim::JobId>{it->second, dep} >= key) {
        throw std::invalid_argument(util::format(
            "ServiceEngine: job %d depends on job %d, which is not earlier in arrival order "
            "(forward dependencies are a batch-run feature)",
            job.id, dep));
      }
    } else if (!core_->table().contains(dep)) {
      throw std::invalid_argument(
          util::format("ServiceEngine: job %d depends on unknown job %d", job.id, dep));
    }
  }
  next_id_ = std::max(next_id_, job.id + 1);
  buffered_ids_.emplace(job.id, job.submit_time);
  ops_.push_back(Request{.op = Request::Op::kSubmit, .job = job});
  const sim::JobId id = job.id;
  buffer_.emplace(key, std::move(job));
  return id;
}

void ServiceEngine::cascade_buffer_cancel(std::vector<sim::JobId>& cancelled) {
  std::set<sim::JobId> dead(cancelled.begin(), cancelled.end());
  bool changed = !dead.empty();
  while (changed) {
    changed = false;
    for (auto it = buffer_.begin(); it != buffer_.end();) {
      const sim::Job& j = it->second;
      const bool hit = std::any_of(j.dependencies.begin(), j.dependencies.end(),
                                   [&](sim::JobId dep) { return dead.count(dep) != 0; });
      if (hit) {
        dead.insert(j.id);
        cancelled.push_back(j.id);
        buffered_ids_.erase(j.id);
        it = buffer_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
}

std::vector<sim::JobId> ServiceEngine::cancel(sim::JobId id) {
  ensure_accepting("cancel");
  std::vector<sim::JobId> cancelled;
  if (const auto it = buffered_ids_.find(id); it != buffered_ids_.end()) {
    buffer_.erase({it->second, id});
    buffered_ids_.erase(it);
    cancelled.push_back(id);
  } else if (core_->table().contains(id)) {
    cancelled = core_->cancel(id);
  } else if (cancelled_ids_.count(id) == 0) {
    throw std::invalid_argument(util::format("ServiceEngine: cancel of unknown job %d", id));
  }
  cascade_buffer_cancel(cancelled);
  for (const sim::JobId c : cancelled) {
    cancelled_ids_.insert(c);
    cancelled_log_.push_back(c);
  }
  ops_.push_back(Request{.op = Request::Op::kCancel, .id = id});
  return cancelled;
}

void ServiceEngine::pump_stream(double t) {
  if (!stream_) return;
  while (const sim::Job* peeked = stream_->peek()) {
    if (peeked->submit_time > t) break;
    sim::Job j = stream_->pop();
    const sim::JobId stream_id = j.id;
    j.id = next_id_++;
    stream_to_global_.emplace(stream_id, j.id);
    bool dep_cancelled = false;
    for (sim::JobId& dep : j.dependencies) {
      dep = stream_to_global_.at(dep);  // backward-only: always pumped earlier
      if (cancelled_ids_.count(dep) != 0) dep_cancelled = true;
    }
    if (dep_cancelled) {
      // A client cancelled an ancestor before this emission was pumped: the
      // job can never run, so it is cancelled on arrival.
      cancelled_ids_.insert(j.id);
      cancelled_log_.push_back(j.id);
      continue;
    }
    buffered_ids_.emplace(j.id, j.submit_time);
    buffer_.emplace(std::pair<double, sim::JobId>{j.submit_time, j.id}, std::move(j));
  }
}

void ServiceEngine::flush_buffer(double t) {
  while (!buffer_.empty() && buffer_.begin()->first.first <= t) {
    const auto it = buffer_.begin();
    core_->admit(it->second);
    admit_watermark_ = it->first;
    buffered_ids_.erase(it->first.second);
    buffer_.erase(it);
  }
}

void ServiceEngine::advance_to(double t) {
  ensure_accepting("advance");
  if (t < clock_) {
    throw std::invalid_argument(
        util::format("ServiceEngine: advance to %.3f behind the clock %.3f", t, clock_));
  }
  clock_ = t;
  pump_stream(t);
  flush_buffer(t);
  core_->set_more_arrivals_hint(true);
  while (core_->has_events() && core_->next_event_time() <= t) {
    core_->step();
  }
  ops_.push_back(Request{.op = Request::Op::kAdvance, .to = t});
  emit_runlog_rows(core_->result());
}

DrainResult ServiceEngine::finish_drain() {
  core_->set_more_arrivals_hint(false);
  while (core_->step()) {
  }
  // Rows must go out before finish() moves the result and re-sorts
  // completions into job-id order - the run log streams completion order.
  emit_runlog_rows(core_->result());
  DrainResult out;
  out.schedule = core_->finish();
  clock_ = std::max(clock_, out.schedule.final_time);
  if (!out.schedule.completed.empty()) {
    out.metrics = metrics::compute_metrics(out.schedule, engine_config_.cluster);
  }
  drained_ = true;
  outcome_ = std::move(out);
  return *outcome_;
}

DrainResult ServiceEngine::drain() {
  ensure_accepting("drain");
  if (stream_ && stream_->endless()) {
    throw std::logic_error(
        "ServiceEngine: drain of an endless stream (max_batches=0) would never terminate");
  }
  pump_stream(kInf);
  flush_buffer(kInf);
  ops_.push_back(Request{.op = Request::Op::kDrain});
  return finish_drain();
}

void ServiceEngine::apply(const Request& op) {
  switch (op.op) {
    case Request::Op::kSubmit: submit(op.job); return;
    case Request::Op::kCancel: cancel(op.id); return;
    case Request::Op::kAdvance: advance_to(op.to); return;
    case Request::Op::kDrain: drain(); return;
    default:
      throw std::invalid_argument(util::format(
          "ServiceEngine: op \"%s\" is not a logged op (submit|cancel|advance|drain)",
          to_string(op.op)));
  }
}

const sim::ScheduleResult& ServiceEngine::schedule_view() const {
  return drained_ ? outcome_->schedule : core_->result();
}

ServiceStatus ServiceEngine::status() const {
  ServiceStatus s;
  s.clock = clock_;
  s.engine_now = core_->now();
  s.steps = core_->steps();
  s.n_admitted = core_->table().size();
  s.n_buffered = buffer_.size();
  s.n_waiting = core_->table().n_waiting();
  s.n_running = core_->cluster().running_count();
  s.n_completed = schedule_view().completed.size();
  s.n_cancelled = cancelled_log_.size();
  s.n_decisions = schedule_view().n_decisions;
  s.stream_emitted = stream_ ? stream_->emitted() : 0;
  s.drained = drained_;
  return s;
}

sim::JobState ServiceEngine::job_state(sim::JobId id) const {
  if (buffered_ids_.count(id) != 0) return sim::JobState::kPending;
  if (core_->table().contains(id)) return core_->table().state(id);
  if (cancelled_ids_.count(id) != 0) return sim::JobState::kCancelled;
  throw std::invalid_argument(util::format("ServiceEngine: query of unknown job %d", id));
}

std::vector<std::string> ServiceEngine::runlog_columns() {
  return {"job_id", "submit_time", "start_time", "end_time",
          "wait",   "turnaround",  "nodes",      "killed_at_walltime"};
}

void ServiceEngine::emit_runlog_rows(const sim::ScheduleResult& result) {
  if (runlog_ == nullptr) return;
  for (std::size_t i = runlog_emitted_; i < result.completed.size(); ++i) {
    const sim::CompletedJob& c = result.completed[i];
    runlog_->append({std::to_string(c.job.id), util::format_double_exact(c.job.submit_time),
                     util::format_double_exact(c.start_time),
                     util::format_double_exact(c.end_time),
                     util::format_double_exact(c.wait_time()),
                     util::format_double_exact(c.turnaround_time()), std::to_string(c.job.nodes),
                     c.killed_at_walltime ? "1" : "0"});
  }
  runlog_emitted_ = result.completed.size();
  runlog_->flush();
}

std::uint64_t ServiceEngine::state_digest() const {
  Digest d;
  d.mix(clock_);
  d.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(next_id_)));
  d.mix(drained_);
  d.mix(static_cast<std::uint64_t>(buffer_.size()));
  for (const auto& [key, job] : buffer_) d.mix_job(job);
  d.mix(static_cast<std::uint64_t>(cancelled_log_.size()));
  for (const sim::JobId id : cancelled_log_) d.mix(id);

  const sim::EngineCore& core = *core_;
  d.mix(core.now());
  d.mix(core.steps());
  d.mix(core.stopped());
  const sim::JobTable& table = core.table();
  d.mix(static_cast<std::uint64_t>(table.size()));
  for (const sim::Job& j : table.arena()) {
    d.mix_job(j);
    d.mix(static_cast<std::uint64_t>(table.state(j.id)));
  }
  for (const sim::Event& e : core.events().snapshot_events()) {
    d.mix(e.time);
    d.mix(static_cast<std::uint64_t>(e.type));
    d.mix(e.job_id);
    d.mix(e.seq);
  }
  const sim::AllocationListView running = core.cluster().running_view();
  d.mix(static_cast<std::uint64_t>(running.size()));
  for (const sim::Allocation& a : running) {
    d.mix(a.job.id);
    d.mix(a.start_time);
    d.mix(a.end_time);
  }
  const sim::ScheduleResult& r = schedule_view();
  d.mix(static_cast<std::uint64_t>(r.n_decisions));
  d.mix(static_cast<std::uint64_t>(r.n_invalid_actions));
  d.mix(static_cast<std::uint64_t>(r.n_forced_delays));
  d.mix(static_cast<std::uint64_t>(r.n_backfills));
  d.mix(r.final_time);
  d.mix(static_cast<std::uint64_t>(r.completed.size()));
  for (const sim::CompletedJob& c : r.completed) {
    d.mix(c.job.id);
    d.mix(c.start_time);
    d.mix(c.end_time);
    d.mix(c.killed_at_walltime);
  }
  d.mix(static_cast<std::uint64_t>(r.decisions.size()));
  for (const sim::DecisionRecord& rec : r.decisions) {
    d.mix(rec.time);
    d.mix(static_cast<std::uint64_t>(rec.action.type));
    d.mix(rec.action.job_id);
    d.mix(rec.accepted);
    d.mix(rec.thought);
    d.mix(rec.feedback);
  }
  return d.value();
}

}  // namespace reasched::service
