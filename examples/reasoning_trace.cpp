// Reproduce the paper's Figure 2: full interpretable reasoning traces from
// the ReAct agent, including a constraint rejection recovered through
// natural-language feedback, on the Adversarial convoy scenario.
//
//   ./examples/reasoning_trace [--model claude|o4] [--jobs 20] [--seed 3]
//                              [--show-prompt]

#include <cstdio>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

static int run(const util::CliArgs& args) {
  const auto n_jobs = args.get_size("jobs", 20);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  const bool use_o4 = args.get("model", "claude") == "o4";

  const auto jobs = workload::generate_scenario("adversarial", n_jobs, seed);
  auto agent = use_o4 ? core::make_o4mini_agent(seed) : core::make_claude37_agent(seed);

  sim::Engine engine;
  const auto result = engine.run(jobs, *agent);

  if (args.has("show-prompt")) {
    std::printf("=== final prompt sent to %s ===\n%s\n=== end prompt ===\n\n",
                agent->name().c_str(), agent->last_prompt().c_str());
  }

  std::printf("=== %s reasoning trace: %zu decisions, %zu rejected, %zu backfills ===\n\n",
              agent->name().c_str(), result.decisions.size(), result.n_invalid_actions,
              result.n_backfills);
  for (const auto& d : result.decisions) {
    std::printf("# Decision at t=%.0f\n", d.time);
    if (!d.thought.empty()) std::printf("# Thought\n%s\n", d.thought.c_str());
    std::printf("# Action\n%s\n", d.action.to_string().c_str());
    if (!d.accepted) {
      std::printf("# Feedback from Environment (appended to scratchpad)\n%s\n",
                  d.feedback.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, {"jobs", "model", "seed", "show-prompt"}, run);
}
