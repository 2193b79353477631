// Behavior-preservation golden for the method axis. Methods are named only
// by spec strings; for every built-in method two construction paths must
// produce bit-identical RunOutcomes (metrics, full schedule, decision
// trace, counters, overhead):
//
//   1. the parsed spec      run_method(jobs, MethodSpec::parse("..."), seed)
//   2. a direct-construction oracle replicating the pre-registry
//      make_scheduler switch verbatim (FcfsScheduler{}, OptimizingScheduler
//      with default config + seed, core::make_*_agent(seed)).
//
// Path 2 is the real guard: it pins the registered builders to the exact
// defaults the enum era hard-coded, so a drifting registry default cannot
// silently change recorded results. The paper-panel sweep is further
// pinned by per-cell digests captured from the enum-keyed sweep.

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "golden_digest_test_helper.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"
#include "opt/optimizing_scheduler.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/engine.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rm = reasched::metrics;
using namespace reasched;

namespace {

constexpr std::uint64_t kSeed = 1337;

const char* const kCanonicalSpecs[] = {
    "fcfs", "sjf", "opt:portfolio", "agent:claude37", "agent:o4mini", "easy", "agent:fastlocal",
};

/// The pre-registry make_scheduler construction, preserved as the oracle and
/// keyed by canonical name.
std::unique_ptr<sim::Scheduler> legacy_make_scheduler(const std::string& name,
                                                      std::uint64_t seed) {
  if (name == "fcfs") return std::make_unique<sched::FcfsScheduler>();
  if (name == "sjf") return std::make_unique<sched::SjfScheduler>();
  if (name == "easy") return std::make_unique<sched::EasyBackfillScheduler>();
  if (name == "opt:portfolio") {
    opt::OptimizingSchedulerConfig config;
    config.seed = seed;
    return std::make_unique<opt::OptimizingScheduler>(config);
  }
  if (name == "agent:claude37") return core::make_claude37_agent(seed);
  if (name == "agent:o4mini") return core::make_o4mini_agent(seed);
  if (name == "agent:fastlocal") return core::make_fast_local_agent(seed);
  throw std::invalid_argument("legacy_make_scheduler: unknown method " + name);
}

struct PinnedCell {
  const char* method;
  std::size_t rep;
  std::uint64_t digest;
};

const PinnedCell kPinnedPanel[] = {
    {"agent:claude37", 0, 0x2e6c839f76d96b87ULL},
    {"agent:claude37", 1, 0xc1960e44d1f15dd1ULL},
    {"agent:o4mini", 0, 0x77fe9ee598ede029ULL},
    {"agent:o4mini", 1, 0xdfba641d13b88b96ULL},
    {"fcfs", 0, 0x7fd1677062abebb1ULL},
    {"fcfs", 1, 0x5f7af93c70ef22f8ULL},
    {"opt:portfolio", 0, 0x1c6495b4aa847db8ULL},
    {"opt:portfolio", 1, 0x50680511a0ecffe5ULL},
    {"sjf", 0, 0x7fd1677062abebb1ULL},
    {"sjf", 1, 0x5f7af93c70ef22f8ULL},
};

void expect_identical_schedules(const sim::ScheduleResult& a, const sim::ScheduleResult& b,
                                const std::string& label) {
  ASSERT_EQ(a.completed.size(), b.completed.size()) << label;
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].job.id, b.completed[i].job.id) << label << " job " << i;
    EXPECT_EQ(a.completed[i].start_time, b.completed[i].start_time) << label << " job " << i;
    EXPECT_EQ(a.completed[i].end_time, b.completed[i].end_time) << label << " job " << i;
    EXPECT_EQ(a.completed[i].killed_at_walltime, b.completed[i].killed_at_walltime)
        << label << " job " << i;
  }
  ASSERT_EQ(a.decisions.size(), b.decisions.size()) << label;
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].time, b.decisions[i].time) << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].action.type, b.decisions[i].action.type)
        << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].action.job_id, b.decisions[i].action.job_id)
        << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].accepted, b.decisions[i].accepted) << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].thought, b.decisions[i].thought) << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].feedback, b.decisions[i].feedback) << label << " decision " << i;
  }
  EXPECT_EQ(a.final_time, b.final_time) << label;
  EXPECT_EQ(a.n_decisions, b.n_decisions) << label;
  EXPECT_EQ(a.n_invalid_actions, b.n_invalid_actions) << label;
  EXPECT_EQ(a.n_forced_delays, b.n_forced_delays) << label;
  EXPECT_EQ(a.n_backfills, b.n_backfills) << label;
}

}  // namespace

TEST(MethodSpecGolden, SpecAndLegacyConstructionBitIdentical) {
  const auto jobs = rw::generate_scenario("hetero_mix", 24, kSeed);
  const sim::EngineConfig engine_config;

  for (const char* const name : kCanonicalSpecs) {
    const std::string label = name;
    const auto via_spec = rh::run_method(jobs, rh::MethodSpec::parse(name), kSeed, engine_config);

    // Registry path vs the pre-registry construction, run outside run_method.
    const auto scheduler = legacy_make_scheduler(name, kSeed);
    sim::Engine engine(engine_config);
    rh::RunOutcome legacy;
    legacy.schedule = engine.run(jobs, *scheduler);
    legacy.metrics = rm::compute_metrics(legacy.schedule, engine_config.cluster);
    for (const auto metric : rm::all_metrics()) {
      EXPECT_EQ(via_spec.metrics.get(metric), legacy.metrics.get(metric))
          << label << " (legacy) metric " << rm::to_string(metric);
    }
    expect_identical_schedules(via_spec.schedule, legacy.schedule, label + " (legacy)");
  }
}

TEST(MethodSpecGolden, SweepCellsUnchangedByRedesign) {
  // The spec-keyed sweep must reproduce the enum-keyed sweep bit-for-bit
  // (pinned per-cell digests): labels (and therefore derived cell seeds),
  // cell enumeration and results are unchanged for the canonical panel.
  rh::SweepConfig config;
  config.scenarios = {"resource_sparse"};
  config.job_counts = {12};
  config.methods = rh::paper_methods();
  config.repetitions = 2;
  config.base_seed = 4242;
  config.threads = 2;

  const auto digests = reasched::testing::sweep_outcome_digests(config);
  ASSERT_EQ(digests.size(), std::size(kPinnedPanel));  // 5 methods x 2 reps
  for (const auto& pin : kPinnedPanel) {
    const auto it = digests.find(rh::Cell{"resource_sparse", 12, pin.method, pin.rep});
    ASSERT_NE(it, digests.end()) << pin.method;
    EXPECT_EQ(it->second, pin.digest) << pin.method << " rep=" << pin.rep;
  }

  for (const auto& [cell, digest] : digests) {
    // Re-run the cell standalone from its derived seed: identical outcome.
    const auto jobs = rh::cell_jobs(config, cell.scenario, cell.n_jobs, cell.repetition);
    const auto standalone =
        rh::run_method(jobs, cell.method, rh::cell_seed(config, cell), config.engine);
    EXPECT_EQ(reasched::testing::outcome_digest(standalone), digest)
        << rh::method_label(cell.method) << " standalone";
  }

  // Labels the seed derivation keys off are the pre-redesign strings.
  EXPECT_EQ(rh::method_label(config.methods[0]), "FCFS");
  EXPECT_EQ(rh::method_label(config.methods[1]), "SJF");
  EXPECT_EQ(rh::method_label(config.methods[2]), "OR-Tools*");
  EXPECT_EQ(rh::method_label(config.methods[3]), "Claude 3.7");
  EXPECT_EQ(rh::method_label(config.methods[4]), "O4-Mini");
}
