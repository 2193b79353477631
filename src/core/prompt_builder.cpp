#include "core/prompt_builder.hpp"

#include <sstream>

#include "core/objectives.hpp"
#include "util/string_utils.hpp"

namespace reasched::core {

std::string PromptBuilder::build(const sim::DecisionContext& ctx,
                                 const std::string& scratchpad_text,
                                 const std::vector<std::uint32_t>* window) const {
  const auto& spec = ctx.cluster.spec();
  std::ostringstream os;

  os << "You are an expert HPC resource manager, and your task is to schedule jobs in a "
        "high-performance computing (HPC) environment. Use the current system state, job "
        "queue, scratchpad (decision history), and fairness indicators to make well-balanced "
        "decisions.\n\n";

  os << util::format("System capacity: %d nodes, %.0f GB memory\n", spec.total_nodes,
                     spec.total_memory_gb);
  os << util::format("Current time: %.0f\n", ctx.now);
  os << util::format("Available Nodes: %d\n", ctx.cluster.available_nodes());
  os << util::format("Available Memory: %.0f GB\n\n", ctx.cluster.available_memory_gb());

  os << "Running Jobs:\n";
  if (ctx.running.empty()) {
    os << "None\n";
  } else {
    for (const auto& alloc : ctx.running) {
      os << util::format("  Job %d: %d Nodes, %.0f GB, user_%d, started t=%.0f, ends ~t=%.0f\n",
                         alloc.job.id, alloc.job.nodes, alloc.job.memory_gb, alloc.job.user,
                         alloc.start_time, alloc.end_time);
    }
  }

  os << "\nCompleted Jobs:\n";
  if (ctx.completed.empty()) {
    os << "None\n";
  } else {
    os << util::format("  %zu job(s) completed", ctx.completed.size());
    const std::size_t show = std::min<std::size_t>(3, ctx.completed.size());
    os << "; most recent: ";
    for (std::size_t i = ctx.completed.size() - show; i < ctx.completed.size(); ++i) {
      os << util::format("Job %d ", ctx.completed[i].job.id);
    }
    os << "\n";
  }

  os << "\nWaiting Jobs (eligible to schedule):\n";
  if (ctx.waiting.empty()) {
    os << "None\n";
  } else {
    const std::size_t n_visible = sim::windowed_size(ctx.waiting, window);
    for (std::size_t k = 0; k < n_visible; ++k) {
      const auto& j = sim::windowed_job(ctx.waiting, window, k);
      os << util::format(
          "  Job %d: %d Nodes, %.0f GB, walltime=%.0f, user_%d, submitted t=%.0f (waited "
          "%.0fs)\n",
          j.id, j.nodes, j.memory_gb, j.walltime, j.user, j.submit_time,
          ctx.now - j.submit_time);
    }
    if (n_visible < ctx.waiting.size()) {
      os << util::format("  (+%zu more waiting job(s) beyond the planning window)\n",
                         ctx.waiting.size() - n_visible);
    }
  }
  if (!ctx.ineligible.empty()) {
    os << "\nSubmitted but not yet eligible (waiting on dependencies):\n";
    // A configured window caps this listing too (at top_k, regardless of
    // whether the waiting queue itself needed cutting): on DAG-heavy
    // workloads the blocked cohort can dwarf the waiting queue, and the
    // flat-prompt contract covers every O(queue) section. The unbounded
    // default keeps the paper's full listing.
    const std::size_t n_blocked = config_.window.top_k != 0
                                      ? std::min(ctx.ineligible.size(), config_.window.top_k)
                                      : ctx.ineligible.size();
    for (std::size_t k = 0; k < n_blocked; ++k) {
      const auto& j = ctx.ineligible[k];
      os << util::format("  Job %d (depends on %zu job(s))\n", j.id, j.dependencies.size());
    }
    if (n_blocked < ctx.ineligible.size()) {
      os << util::format("  (+%zu more blocked job(s) beyond the planning window)\n",
                         ctx.ineligible.size() - n_blocked);
    }
  }

  os << "\n# Scratchpad (Decision History)\n" << scratchpad_text << "\n";

  os << objectives_block() << "\n" << action_menu_block();
  return os.str();
}

}  // namespace reasched::core
