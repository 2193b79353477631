#include "opt/list_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "sim/event.hpp"

namespace reasched::opt {

PlannedSchedule decode_subset(const ProblemView& problem, const std::vector<std::size_t>& order) {
  PlannedSchedule plan;
  plan.order.reserve(order.size());

  struct Release {
    double time;
    int nodes;
    double memory_gb;
  };
  struct Later {
    bool operator()(const Release& a, const Release& b) const { return a.time > b.time; }
  };
  std::priority_queue<Release, std::vector<Release>, Later> releases;

  int free_nodes = problem.total_nodes();
  double free_memory = problem.total_memory_gb();
  for (std::size_t p = 0; p < problem.n_pinned(); ++p) {
    const Problem::Pinned pin = problem.pinned(p);
    free_nodes -= pin.nodes;
    free_memory -= pin.memory_gb;
    releases.push({pin.end_time, pin.nodes, pin.memory_gb});
  }

  const double now = problem.now();
  double clock = now;
  for (const std::size_t idx : order) {
    const sim::Job& job = problem.job(idx);
    clock = std::max(clock, std::max(now, job.submit_time));
    // Advance until the job fits; each release strictly increases free
    // resources, so this terminates (validated capacities guarantee fit on
    // the empty cluster).
    while (free_nodes < job.nodes || !sim::mem_fits(free_memory, job.memory_gb)) {
      if (releases.empty()) {
        throw std::logic_error("decode_order: job never fits (capacity violation upstream)");
      }
      const Release r = releases.top();
      releases.pop();
      clock = std::max(clock, r.time);
      free_nodes += r.nodes;
      free_memory += r.memory_gb;
      // Drain co-timed releases so `fits` sees the full freed capacity.
      while (!releases.empty() && releases.top().time <= clock) {
        free_nodes += releases.top().nodes;
        free_memory += releases.top().memory_gb;
        releases.pop();
      }
    }
    const double start = clock;
    const double end = start + job.duration;
    free_nodes -= job.nodes;
    free_memory -= job.memory_gb;
    releases.push({end, job.nodes, job.memory_gb});

    plan.start_times[job.id] = start;
    plan.order.push_back(job.id);
    plan.makespan = std::max(plan.makespan, end);
    plan.total_wait += start - std::max(now, job.submit_time);
  }
  return plan;
}

PlannedSchedule decode_order(const ProblemView& problem, const std::vector<std::size_t>& order) {
  if (order.size() != problem.n_jobs()) {
    throw std::invalid_argument("decode_order: order size mismatch");
  }
  return decode_subset(problem, order);
}

namespace {
std::vector<std::size_t> sorted_order(const ProblemView& p,
                                      bool (*less)(const sim::Job&, const sim::Job&)) {
  std::vector<std::size_t> order(p.n_jobs());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return less(p.job(a), p.job(b));
  });
  return order;
}
}  // namespace

std::vector<std::size_t> order_by_arrival(const ProblemView& problem) {
  return sorted_order(problem, [](const sim::Job& a, const sim::Job& b) {
    return sim::arrival_order(a, b);
  });
}

std::vector<std::size_t> order_spt(const ProblemView& problem) {
  return sorted_order(problem, [](const sim::Job& a, const sim::Job& b) {
    if (a.walltime != b.walltime) return a.walltime < b.walltime;
    return a.id < b.id;
  });
}

std::vector<std::size_t> order_lpt(const ProblemView& problem) {
  return sorted_order(problem, [](const sim::Job& a, const sim::Job& b) {
    if (a.walltime != b.walltime) return a.walltime > b.walltime;
    return a.id < b.id;
  });
}

std::vector<std::size_t> order_widest(const ProblemView& problem) {
  return sorted_order(problem, [](const sim::Job& a, const sim::Job& b) {
    if (a.nodes != b.nodes) return a.nodes > b.nodes;
    return a.id < b.id;
  });
}

}  // namespace reasched::opt
