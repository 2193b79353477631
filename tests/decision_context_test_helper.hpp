#pragma once

// Ad-hoc DecisionContexts for unit tests of policies, prompts and the
// constraint checker: a fixture that owns every list a context views, and a
// one-line job builder.

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

}  // namespace reasched::testing
