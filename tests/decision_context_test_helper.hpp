#pragma once

// Ad-hoc DecisionContexts for unit tests of policies, prompts and the
// constraint checker: a fixture that owns every list a context views, a
// one-line job builder, and a scheduler decorator that replays the engine's
// contexts as such owned copies.

#include <string>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "sim/schedule_result.hpp"
#include "sim/scheduler.hpp"

namespace reasched::testing {

/// A job whose walltime estimate equals its duration.
inline sim::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0,
                         int user = 1) {
  sim::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  j.user = user;
  return j;
}

/// Owns all vectors a DecisionContext points to, on the paper's default
/// cluster. Fill `waiting`/`ineligible`/`completed` and allocate on
/// `cluster`, then take `ctx(now)`.
struct CtxFixture {
  sim::ClusterState cluster{sim::ClusterSpec::paper_default()};
  std::vector<sim::Job> waiting;
  std::vector<sim::Job> ineligible;
  std::vector<sim::ClusterState::Allocation> running;
  std::vector<sim::CompletedJob> completed;
  bool arrivals_pending = false;

  sim::DecisionContext ctx(double now = 0.0) {
    running = cluster.running_by_end_time();
    return {now, cluster, waiting, ineligible, running, completed, arrivals_pending};
  }
};

/// Differential oracle for a policy's input path: forwards every call to
/// `inner`, but hands it a direct-mode copy of each context (owned vectors,
/// jobs_index == nullptr) instead of the engine's indexed views. A policy
/// that decides differently behind this wrapper depends on how the engine
/// stores its state, not only on what the state is.
class CopiedContextScheduler final : public sim::Scheduler {
 public:
  explicit CopiedContextScheduler(sim::Scheduler& inner) : inner_(inner) {}

  sim::Action decide(const sim::DecisionContext& ctx) override {
    return inner_.decide(copy(ctx));
  }
  void on_feedback(const std::string& feedback, const sim::DecisionContext& ctx) override {
    inner_.on_feedback(feedback, copy(ctx));
  }
  void on_accepted(const sim::Action& action, const sim::DecisionContext& ctx) override {
    inner_.on_accepted(action, copy(ctx));
  }
  std::string last_thought() const override { return inner_.last_thought(); }
  std::string name() const override { return inner_.name(); }
  std::vector<std::pair<std::string, double>> obs_counters() const override {
    return inner_.obs_counters();
  }
  void reset() override { inner_.reset(); }

 private:
  sim::DecisionContext copy(const sim::DecisionContext& ctx) {
    waiting_.assign(ctx.waiting.begin(), ctx.waiting.end());
    ineligible_.assign(ctx.ineligible.begin(), ctx.ineligible.end());
    running_.assign(ctx.running.begin(), ctx.running.end());
    completed_.assign(ctx.completed.begin(), ctx.completed.end());
    return {ctx.now, ctx.cluster, waiting_, ineligible_, running_, completed_,
            ctx.arrivals_pending};
  }

  sim::Scheduler& inner_;
  std::vector<sim::Job> waiting_;
  std::vector<sim::Job> ineligible_;
  std::vector<sim::Allocation> running_;
  std::vector<sim::CompletedJob> completed_;
};

}  // namespace reasched::testing
