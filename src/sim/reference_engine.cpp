#include "sim/reference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

#include "sim/feedback.hpp"
#include "util/string_utils.hpp"

namespace reasched::sim {

struct ReferenceEngine::RunState {
  explicit RunState(ClusterSpec spec) : cluster(spec) {}

  ClusterState cluster;
  EventQueue events;
  std::map<JobId, Job> all_jobs;
  std::vector<Job> waiting;     ///< eligible, arrival order
  std::vector<Job> ineligible;  ///< arrived, dependencies unmet
  std::set<JobId> completed_ids;
  std::set<JobId> killed;       ///< terminated at walltime (enforce_walltime)
  ScheduleResult result;
  Scheduler* scheduler = nullptr;
  bool stopped = false;
};

ReferenceEngine::ReferenceEngine(EngineConfig config) : config_(config) {}

void ReferenceEngine::validate_jobs(const std::vector<Job>& jobs) const {
  const ClusterState probe(config_.cluster);
  std::set<JobId> ids;
  for (const Job& j : jobs) {
    if (!j.valid()) {
      throw std::invalid_argument(util::format("Engine: job %d is malformed", j.id));
    }
    if (!ids.insert(j.id).second) {
      throw std::invalid_argument(util::format("Engine: duplicate job id %d", j.id));
    }
    if (!probe.fits_empty(j)) {
      throw std::invalid_argument(util::format(
          "Engine: job %d requests %d nodes / %.0f GB, exceeding cluster capacity", j.id, j.nodes,
          j.memory_gb));
    }
  }
  // Dependency references must exist and form a DAG.
  for (const Job& j : jobs) {
    for (const JobId dep : j.dependencies) {
      if (ids.count(dep) == 0) {
        throw std::invalid_argument(
            util::format("Engine: job %d depends on unknown job %d", j.id, dep));
      }
      if (dep == j.id) {
        throw std::invalid_argument(util::format("Engine: job %d depends on itself", j.id));
      }
    }
  }
  // Kahn's algorithm for cycle detection.
  std::map<JobId, int> indegree;
  std::map<JobId, std::vector<JobId>> successors;
  for (const Job& j : jobs) indegree[j.id] = static_cast<int>(j.dependencies.size());
  for (const Job& j : jobs) {
    for (const JobId dep : j.dependencies) successors[dep].push_back(j.id);
  }
  std::vector<JobId> frontier;
  for (const auto& [id, deg] : indegree) {
    if (deg == 0) frontier.push_back(id);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const JobId id = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const JobId succ : successors[id]) {
      if (--indegree[succ] == 0) frontier.push_back(succ);
    }
  }
  if (visited != jobs.size()) {
    throw std::invalid_argument("Engine: dependency graph contains a cycle");
  }
}

void ReferenceEngine::promote_eligible(RunState& rs) {
  auto ready = [&rs](const Job& j) {
    return std::all_of(j.dependencies.begin(), j.dependencies.end(),
                       [&rs](JobId d) { return rs.completed_ids.count(d) != 0; });
  };
  for (auto it = rs.ineligible.begin(); it != rs.ineligible.end();) {
    if (ready(*it)) {
      rs.waiting.push_back(*it);
      it = rs.ineligible.erase(it);
    } else {
      ++it;
    }
  }
  // total-order: arrival_order breaks submit-time ties by unique JobId.
  std::sort(rs.waiting.begin(), rs.waiting.end(), arrival_order);
}

void ReferenceEngine::process_events_at(RunState& rs, double now) {
  while (!rs.events.empty() && same_event_time(rs.events.next_time(), now)) {
    const Event e = rs.events.pop();
    if (e.type == EventType::kCompletion) {
      const auto alloc = rs.cluster.release(e.job_id);
      CompletedJob record{alloc.job, alloc.start_time, alloc.end_time,
                          rs.killed.count(e.job_id) != 0};
      // Report the job as submitted (original duration), even when killed.
      record.job = rs.all_jobs.at(e.job_id);
      rs.result.completed.push_back(std::move(record));
      rs.completed_ids.insert(e.job_id);
      rs.result.final_time = std::max(rs.result.final_time, alloc.end_time);
    } else {
      const Job& job = rs.all_jobs.at(e.job_id);
      const bool ready = std::all_of(
          job.dependencies.begin(), job.dependencies.end(),
          [&rs](JobId d) { return rs.completed_ids.count(d) != 0; });
      (ready ? rs.waiting : rs.ineligible).push_back(job);
    }
  }
  promote_eligible(rs);
}

void ReferenceEngine::execute_start(RunState& rs, double now, const Job& job, bool backfill) {
  Job effective = job;
  if (config_.enforce_walltime && effective.duration > effective.walltime) {
    // The resource manager terminates the job at its requested limit.
    effective.duration = effective.walltime;
    rs.killed.insert(effective.id);
  }
  rs.cluster.allocate(effective, now);
  rs.events.push(now + effective.duration, EventType::kCompletion, effective.id);
  rs.waiting.erase(std::remove_if(rs.waiting.begin(), rs.waiting.end(),
                                  [&](const Job& j) { return j.id == job.id; }),
                   rs.waiting.end());
  if (backfill) ++rs.result.n_backfills;
}

void ReferenceEngine::emergency_start(RunState& rs, double now) {
  for (const Job& job : rs.waiting) {
    if (rs.cluster.fits(job)) {
      std::fprintf(stderr,
                   "[WARN] ReferenceEngine: forcing FCFS start of job %d to break a scheduler "
                   "livelock\n",
                   job.id);
      ++rs.result.n_forced_delays;
      execute_start(rs, now, job, /*backfill=*/false);
      return;
    }
  }
  throw std::logic_error("Engine: livelock with no startable job (unreachable)");
}

void ReferenceEngine::decision_phase(RunState& rs, double now) {
  int invalid_streak = 0;
  while (!rs.stopped) {
    // The seed path: every query copies and sorts all running allocations.
    const auto running = rs.cluster.running_by_end_time();
    const DecisionContext ctx{now,
                              rs.cluster,
                              rs.waiting,
                              rs.ineligible,
                              running,
                              rs.result.completed,
                              rs.events.has_pending_arrivals()};

    const bool terminal_state =
        rs.waiting.empty() && rs.ineligible.empty() && !ctx.arrivals_pending;
    if (rs.waiting.empty() && !terminal_state) return;

    const Action action = rs.scheduler->decide(ctx);
    ++rs.result.n_decisions;

    const Validation verdict = checker_.check(action, ctx);
    DecisionRecord record;
    record.time = now;
    record.action = action;
    record.accepted = verdict.ok();
    if (config_.record_traces) record.thought = rs.scheduler->last_thought();

    if (verdict.ok()) {
      invalid_streak = 0;
      switch (action.type) {
        case ActionType::kStartJob:
        case ActionType::kBackfillJob: {
          const Job job = *std::find_if(rs.waiting.begin(), rs.waiting.end(),
                                        [&](const Job& j) { return j.id == action.job_id; });
          execute_start(rs, now, job, action.type == ActionType::kBackfillJob);
          // The seed passed `ctx` whose vectors execute_start had mutated in
          // place; with views that would capture stale sizes, so rebuild the
          // context over the post-action state (receivers in-tree ignore it).
          const auto running_after = rs.cluster.running_by_end_time();
          const DecisionContext after{now,
                                      rs.cluster,
                                      rs.waiting,
                                      rs.ineligible,
                                      running_after,
                                      rs.result.completed,
                                      rs.events.has_pending_arrivals()};
          rs.scheduler->on_accepted(action, after);
          break;
        }
        case ActionType::kStop:
          rs.stopped = true;
          rs.scheduler->on_accepted(action, ctx);
          break;
        case ActionType::kDelay:
          rs.scheduler->on_accepted(action, ctx);
          break;
      }
      if (config_.record_traces) rs.result.decisions.push_back(std::move(record));
      if (action.type == ActionType::kDelay || action.type == ActionType::kStop) {
        if (action.type == ActionType::kDelay && rs.events.empty() && !rs.waiting.empty()) {
          emergency_start(rs, now);
          continue;
        }
        return;
      }
      if (terminal_state) return;  // nothing left to place
      continue;
    }

    // Invalid action: explain (Section 2.4), count, and re-query.
    ++rs.result.n_invalid_actions;
    ++invalid_streak;
    const std::string feedback = render_feedback(now, action, verdict);
    if (config_.feedback_enabled) rs.scheduler->on_feedback(feedback, ctx);
    if (config_.record_traces) {
      record.feedback = feedback;
      rs.result.decisions.push_back(std::move(record));
    }
    if (invalid_streak > config_.max_invalid_retries) {
      ++rs.result.n_forced_delays;
      if (rs.events.empty() && !rs.waiting.empty()) {
        emergency_start(rs, now);
        invalid_streak = 0;
        continue;
      }
      return;  // forced Delay: advance to the next event
    }
  }
}

ScheduleResult ReferenceEngine::run(const std::vector<Job>& jobs, Scheduler& scheduler) {
  validate_jobs(jobs);
  RunState rs(config_.cluster);
  rs.scheduler = &scheduler;
  scheduler.reset();

  for (const Job& j : jobs) {
    rs.all_jobs.emplace(j.id, j);
    rs.events.push(j.submit_time, EventType::kArrival, j.id);
  }

  while (!rs.events.empty()) {
    const double now = rs.events.next_time();
    process_events_at(rs, now);
    decision_phase(rs, now);
    if (rs.events.empty() && !rs.waiting.empty() && !rs.stopped) {
      // Scheduler delayed with no future events; force progress.
      emergency_start(rs, now);
      decision_phase(rs, now);
    }
  }

  if (!rs.waiting.empty() || !rs.ineligible.empty()) {
    throw std::logic_error("Engine: simulation ended with unscheduled jobs (unreachable)");
  }
  // total-order: unique JobId.
  std::sort(rs.result.completed.begin(), rs.result.completed.end(),
            [](const CompletedJob& a, const CompletedJob& b) { return a.job.id < b.job.id; });
  return std::move(rs.result);
}

}  // namespace reasched::sim
