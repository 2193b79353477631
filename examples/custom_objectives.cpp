// Build a custom simulated-model profile with user-chosen objective
// temperament and compare it against the stock Claude/O4 profiles - the
// knob the paper turns implicitly when it contrasts the two models'
// fairness/efficiency trade-offs (Section 3.5).
//
//   ./examples/custom_objectives [--fairness 0.5] [--throughput 0.2]
//                                [--utilization 0.2] [--makespan 0.1]
//                                [--jobs 60] [--seed 21]

#include <cstdio>

#include "core/factory.hpp"
#include "harness/experiment.hpp"
#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

static int run(const util::CliArgs& args) {
  const auto n_jobs = args.get_size("jobs", 60, 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 21));

  // A custom temperament: the four prompt objectives, weighted your way.
  llm::ModelProfile custom = llm::claude37_profile();
  custom.display_name = "Custom";
  custom.api_id = "custom-reasoner";
  custom.temperament.w_fairness = args.get_double("fairness", 0.50);
  custom.temperament.w_throughput = args.get_double("throughput", 0.20);
  custom.temperament.w_utilization = args.get_double("utilization", 0.20);
  custom.temperament.w_makespan = args.get_double("makespan", 0.10);

  const auto jobs = workload::generate_scenario("long_job", n_jobs, seed);

  sim::Engine engine;
  std::vector<metrics::MethodResult> rows;

  // FCFS baseline first (the normalization anchor), then the three agents.
  {
    const auto outcome = harness::run_method(jobs, "fcfs", seed);
    rows.push_back({"FCFS", outcome.metrics});
  }
  for (const auto& profile :
       {llm::claude37_profile(), llm::o4mini_profile(), custom}) {
    auto agent = core::make_agent(profile, seed);
    const auto result = engine.run(jobs, *agent);
    rows.push_back(
        {profile.display_name, metrics::compute_metrics(result, engine.config().cluster)});
  }

  std::printf("Long-Job Dominant, %zu jobs - objective-temperament comparison\n", jobs.size());
  std::printf("Custom weights: fairness=%.2f throughput=%.2f utilization=%.2f makespan=%.2f\n\n",
              custom.temperament.w_fairness, custom.temperament.w_throughput,
              custom.temperament.w_utilization, custom.temperament.w_makespan);
  std::printf("%s", metrics::render_normalized_table(rows, "FCFS").c_str());
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv,
                        {"fairness", "jobs", "makespan", "seed", "throughput", "utilization"}, run);
}
