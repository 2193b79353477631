#include "sim/engine_core.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.hpp"
#include "sim/feedback.hpp"
#include "util/string_utils.hpp"

namespace reasched::sim {

void validate_jobs(const std::vector<Job>& jobs, const ClusterSpec& cluster) {
  const ClusterState probe(cluster);
  std::unordered_map<JobId, std::size_t> index;
  index.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    if (!j.valid()) {
      throw std::invalid_argument(util::format("Engine: job %d is malformed", j.id));
    }
    if (!index.emplace(j.id, i).second) {
      throw std::invalid_argument(util::format("Engine: duplicate job id %d", j.id));
    }
    if (!probe.fits_empty(j)) {
      throw std::invalid_argument(util::format(
          "Engine: job %d requests %d nodes / %.0f GB, exceeding cluster capacity", j.id, j.nodes,
          j.memory_gb));
    }
  }
  // Dependency references must exist and form a DAG (Kahn's algorithm over
  // dense indices: O(V + E)).
  std::vector<int> indegree(jobs.size(), 0);
  std::vector<std::vector<std::size_t>> successors(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    for (const JobId dep : j.dependencies) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        throw std::invalid_argument(
            util::format("Engine: job %d depends on unknown job %d", j.id, dep));
      }
      if (dep == j.id) {
        throw std::invalid_argument(util::format("Engine: job %d depends on itself", j.id));
      }
      ++indegree[i];
      successors[it->second].push_back(i);
    }
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const std::size_t i = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const std::size_t succ : successors[i]) {
      if (--indegree[succ] == 0) frontier.push_back(succ);
    }
  }
  if (visited != jobs.size()) {
    throw std::invalid_argument("Engine: dependency graph contains a cycle");
  }
}

EngineCore::EngineCore(const EngineConfig& config, Scheduler& scheduler)
    : config_(config), scheduler_(&scheduler), cluster_(config.cluster) {
  scheduler_->reset();
}

DecisionContext EngineCore::context(double event_time) const {
  return DecisionContext{event_time,
                         cluster_,
                         table_.waiting_view(),
                         table_.ineligible_view(),
                         cluster_.running_view(),
                         result_.completed,
                         events_.has_pending_arrivals() || more_arrivals_hint_,
                         &table_};
}

void EngineCore::load(const std::vector<Job>& jobs) {
  if (table_.size() != 0 || steps_ != 0) {
    throw std::logic_error("EngineCore: load() on a core that already has state");
  }
  table_.build(jobs);
  result_.completed.reserve(jobs.size());
  for (const Job& j : jobs) {
    events_.push(j.submit_time, EventType::kArrival, j.id);
  }
}

void EngineCore::admit(const Job& job) {
  if (!job.valid()) {
    throw std::invalid_argument(util::format("EngineCore: job %d is malformed", job.id));
  }
  if (!cluster_.fits_empty(job)) {
    throw std::invalid_argument(util::format(
        "EngineCore: job %d requests %d nodes / %.0f GB, exceeding cluster capacity", job.id,
        job.nodes, job.memory_gb));
  }
  if (job.submit_time < now_) {
    throw std::invalid_argument(
        util::format("EngineCore: job %d submitted in the past (%.3f < clock %.3f)", job.id,
                     job.submit_time, now_));
  }
  table_.add_job(job);  // validates dependencies + arrival-order append
  events_.push(job.submit_time, EventType::kArrival, job.id);
}

std::vector<JobId> EngineCore::cancel(JobId id) {
  std::vector<JobId> ids = table_.cancel(id);
  for (const JobId cancelled_id : ids) {
    // Tombstone queued arrivals; ids whose arrival already fired never come
    // up again, so a stale tombstone is only consumed, never acted on.
    arrival_tombstones_.insert(cancelled_id);
  }
  return ids;
}

void EngineCore::process_events_at(double event_time) {
  while (!events_.empty() && same_event_time(events_.next_time(), event_time)) {
    const Event e = events_.pop();
    if (e.type == EventType::kCompletion) {
      const auto alloc = cluster_.release(e.job_id);
      CompletedJob record{alloc.job, alloc.start_time, alloc.end_time, table_.killed(e.job_id)};
      // Report the job as submitted (original duration), even when killed.
      record.job = table_.job(e.job_id);
      result_.completed.push_back(std::move(record));
      table_.complete(e.job_id);
      result_.final_time = std::max(result_.final_time, alloc.end_time);
    } else {
      const auto tomb = arrival_tombstones_.find(e.job_id);
      if (tomb != arrival_tombstones_.end()) {
        arrival_tombstones_.erase(tomb);  // cancelled while pending: skip
        continue;
      }
      table_.arrive(e.job_id);
    }
  }
}

void EngineCore::execute_start(double event_time, const Job& job, bool backfill) {
  Job effective = job;
  if (config_.enforce_walltime && effective.duration > effective.walltime) {
    // The resource manager terminates the job at its requested limit.
    effective.duration = effective.walltime;
    table_.mark_killed(effective.id);
  }
  cluster_.allocate(effective, event_time);
  events_.push(event_time + effective.duration, EventType::kCompletion, effective.id);
  table_.start(job.id);
  if (backfill) ++result_.n_backfills;
}

void EngineCore::emergency_start(double event_time) {
  // Reached only when the scheduler delays with no pending events: nothing
  // is running, so the full cluster is free and the first waiting job must
  // fit (capacity-impossible jobs were rejected at submission).
  for (const Job& job : table_.waiting_view()) {
    if (cluster_.fits(job)) {
      std::fprintf(stderr,
                   "[WARN] Engine: forcing FCFS start of job %d to break a scheduler livelock\n",
                   job.id);
      ++result_.n_forced_delays;
      execute_start(event_time, job, /*backfill=*/false);
      return;
    }
  }
  throw std::logic_error("Engine: livelock with no startable job (unreachable)");
}

void EngineCore::decision_phase(double event_time) {
  int invalid_streak = 0;
  while (!stopped_) {
    const DecisionContext ctx = context(event_time);

    // The paper queries the agent only when jobs are ready, with one
    // exception: the terminal state, where the agent is asked once so it can
    // emit Stop (Figure 2, decision at t=9997).
    const bool terminal_state =
        ctx.waiting.empty() && ctx.ineligible.empty() && !ctx.arrivals_pending;
    if (ctx.waiting.empty() && !terminal_state) return;

    // Sampled decision span (1 in obs::kSampleEvery): stamps the wall-clock
    // cost of one scheduler query plus the state it saw and the policy's
    // own counters. Observe-only; the decision itself is untouched.
    obs::Span decision_span;
    if (obs::enabled() && (obs_decision_serial_++ & (obs::kSampleEvery - 1)) == 0) {
      decision_span = obs::Span::begin(obs::TraceRecorder::global(), "decision", "sched");
      decision_span.set_sim_time(event_time);
      decision_span.sarg("method", scheduler_->name());
      decision_span.arg("queue_depth", static_cast<double>(ctx.waiting.size()));
      decision_span.arg("running", static_cast<double>(ctx.running.size()));
    }

    const Action action = scheduler_->decide(ctx);
    ++result_.n_decisions;
    if (decision_span.active()) {
      decision_span.sarg("action", to_string(action.type));
      for (const auto& [key, value] : scheduler_->obs_counters()) {
        decision_span.arg(key, value);
      }
      decision_span.end();
    }

    const Validation verdict = checker_.check(action, ctx);
    DecisionRecord record;
    record.time = event_time;
    record.action = action;
    record.accepted = verdict.ok();
    if (config_.record_traces) record.thought = scheduler_->last_thought();

    if (verdict.ok()) {
      invalid_streak = 0;
      switch (action.type) {
        case ActionType::kStartJob:
        case ActionType::kBackfillJob: {
          // Checker accepted, so the job is in the waiting index; the arena
          // reference stays valid across the start transition.
          const Job& job = *ctx.find_waiting(action.job_id);
          execute_start(event_time, job, action.type == ActionType::kBackfillJob);
          // ctx's views were invalidated by the start transition; notify
          // with a fresh context over the post-action state.
          scheduler_->on_accepted(action, context(event_time));
          break;
        }
        case ActionType::kStop:
          stopped_ = true;
          scheduler_->on_accepted(action, ctx);
          break;
        case ActionType::kDelay:
          scheduler_->on_accepted(action, ctx);
          break;
      }
      if (config_.record_traces) result_.decisions.push_back(std::move(record));
      if (action.type == ActionType::kDelay || action.type == ActionType::kStop) {
        if (action.type == ActionType::kDelay && events_.empty() && table_.n_waiting() > 0 &&
            !more_arrivals_hint_) {
          emergency_start(event_time);
          continue;
        }
        return;
      }
      if (terminal_state) return;  // nothing left to place
      continue;
    }

    // Invalid action: explain (Section 2.4), count, and re-query.
    ++result_.n_invalid_actions;
    ++invalid_streak;
    const std::string feedback = render_feedback(event_time, action, verdict);
    if (config_.feedback_enabled) scheduler_->on_feedback(feedback, ctx);
    if (config_.record_traces) {
      record.feedback = feedback;
      result_.decisions.push_back(std::move(record));
    }
    if (invalid_streak > config_.max_invalid_retries) {
      ++result_.n_forced_delays;
      if (events_.empty() && table_.n_waiting() > 0 && !more_arrivals_hint_) {
        emergency_start(event_time);
        invalid_streak = 0;
        continue;
      }
      return;  // forced Delay: advance to the next event
    }
  }
}

bool EngineCore::step() {
  if (events_.empty()) return false;

  // Telemetry: non-sampled steps cost one relaxed load plus a serial
  // increment; every obs::kSampleEvery-th step additionally records an
  // event-batch span. Everything here is observe-only.
  const bool obs_sampled = obs::enabled() && (obs_step_serial_++ & (obs::kSampleEvery - 1)) == 0;
  std::size_t obs_decisions0 = 0, obs_completed0 = 0;
  obs::Span step_span;
  if (obs_sampled) {
    obs_decisions0 = result_.n_decisions;
    obs_completed0 = result_.completed.size();
    step_span = obs::Span::begin(obs::TraceRecorder::global(), "step", "sim");
  }

  const double event_time = events_.next_time();
  now_ = event_time;
  process_events_at(event_time);
  decision_phase(event_time);
  if (events_.empty() && table_.n_waiting() > 0 && !stopped_ && !more_arrivals_hint_) {
    // Scheduler delayed with no future events; force progress. With the
    // more-arrivals hint set this is not a livelock - the service will feed
    // more events - so waiting idle is the correct online behaviour.
    emergency_start(event_time);
    decision_phase(event_time);
  }
  ++steps_;

  if (obs_sampled) {
    step_span.set_sim_time(event_time);
    step_span.arg("decisions", static_cast<double>(result_.n_decisions - obs_decisions0));
    step_span.arg("completed", static_cast<double>(result_.completed.size() - obs_completed0));
    step_span.arg("queue_depth", static_cast<double>(table_.n_waiting()));
    step_span.end();
  }
  return true;
}

ScheduleResult EngineCore::finish() {
  if (table_.n_waiting() > 0 || table_.n_ineligible() > 0) {
    throw std::logic_error("Engine: simulation ended with unscheduled jobs (unreachable)");
  }
  // total-order: unique JobId.
  std::sort(result_.completed.begin(), result_.completed.end(),
            [](const CompletedJob& a, const CompletedJob& b) { return a.job.id < b.job.id; });
  return std::move(result_);
}

}  // namespace reasched::sim
