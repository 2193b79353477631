// Behavior-preservation golden for the scenario axis. The seven paper
// scenarios are named only by spec strings; every recorded result must stay
// bit-identical to what the pre-registry enum path produced:
//
//   1. cell_jobs() for every canonical spec x n x rep matches a pinned
//      digest, captured from the enum-keyed generator factory before it was
//      deleted - scenario labels (the seed-derivation keys), the RNG
//      streams and the seven make_job draws are all covered;
//   2. full sweep RunOutcomes (metrics, schedule, decisions, counters) over
//      the seven scenarios match pinned digests captured the same way;
//   3. a piped transform spec re-parsed from its canonical to_string()
//      generates - and schedules - deterministically identically.

#include <gtest/gtest.h>

#include "golden_digest_test_helper.hpp"
#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"
#include "workload/scenario_spec.hpp"

namespace rh = reasched::harness;
namespace rw = reasched::workload;
namespace rm = reasched::metrics;
using namespace reasched;

namespace {

constexpr std::uint64_t kSeed = 20260727;

struct PinnedJobs {
  const char* spec;
  std::size_t n;
  std::size_t rep;
  std::uint64_t digest;
};

const PinnedJobs kPinnedCellJobs[] = {
    {"homog_short", 10, 0, 0x9a51d2c7a647ed83ULL},
    {"homog_short", 10, 1, 0xf55e11b897560aadULL},
    {"homog_short", 60, 0, 0x89093a8ba5edbb35ULL},
    {"homog_short", 60, 1, 0x6a06a50a56378c66ULL},
    {"hetero_mix", 10, 0, 0xf348aa3cbc0030efULL},
    {"hetero_mix", 10, 1, 0xc7f1e76859552ae8ULL},
    {"hetero_mix", 60, 0, 0x7bb7812fd7f7e5aeULL},
    {"hetero_mix", 60, 1, 0x88c3d312ab6a92adULL},
    {"long_job", 10, 0, 0xe142309be65aa39bULL},
    {"long_job", 10, 1, 0x06378d71748f28c3ULL},
    {"long_job", 60, 0, 0x133a57ddbda4e124ULL},
    {"long_job", 60, 1, 0x50eac8d9dd4be299ULL},
    {"high_parallel", 10, 0, 0xae9fc4ce7e349a03ULL},
    {"high_parallel", 10, 1, 0x96150afc9e0c339cULL},
    {"high_parallel", 60, 0, 0x6ab4102b992bbe67ULL},
    {"high_parallel", 60, 1, 0x3f419a1fa79dded8ULL},
    {"resource_sparse", 10, 0, 0x6e6c3e990a160853ULL},
    {"resource_sparse", 10, 1, 0x61debc880bf024bfULL},
    {"resource_sparse", 60, 0, 0xdb821eb0cbb61204ULL},
    {"resource_sparse", 60, 1, 0xdb4eb20469dfc449ULL},
    {"bursty_idle", 10, 0, 0x1df83aba0262b3aaULL},
    {"bursty_idle", 10, 1, 0x2c23dabd8a4d1554ULL},
    {"bursty_idle", 60, 0, 0x46a9af2e9a2f6634ULL},
    {"bursty_idle", 60, 1, 0xb127a5390fe19775ULL},
    {"adversarial", 10, 0, 0xab7a616d0267859aULL},
    {"adversarial", 10, 1, 0x2c058a425d562b5dULL},
    {"adversarial", 60, 0, 0xad6a2b60ed868352ULL},
    {"adversarial", 60, 1, 0x144fa1b4688d6f56ULL},
};

struct PinnedOutcome {
  const char* scenario;
  const char* method;
  std::size_t rep;
  std::uint64_t digest;
};

const PinnedOutcome kPinnedSweep[] = {
    {"adversarial", "easy", 0, 0x1c47ce183b30b806ULL},
    {"adversarial", "fcfs", 0, 0x1c47ce183b30b806ULL},
    {"adversarial", "sjf", 0, 0x1c47ce183b30b806ULL},
    {"bursty_idle", "easy", 0, 0xeb9b6ad4ade83e92ULL},
    {"bursty_idle", "fcfs", 0, 0xeb9b6ad4ade83e92ULL},
    {"bursty_idle", "sjf", 0, 0xeb9b6ad4ade83e92ULL},
    {"hetero_mix", "easy", 0, 0xda0fa6c3a3083206ULL},
    {"hetero_mix", "fcfs", 0, 0xda0fa6c3a3083206ULL},
    {"hetero_mix", "sjf", 0, 0xda0fa6c3a3083206ULL},
    {"high_parallel", "easy", 0, 0xdc0207277def5b8aULL},
    {"high_parallel", "fcfs", 0, 0xdc0207277def5b8aULL},
    {"high_parallel", "sjf", 0, 0x40b5924a7725c6adULL},
    {"homog_short", "easy", 0, 0x24ecc2afc19227b0ULL},
    {"homog_short", "fcfs", 0, 0x24ecc2afc19227b0ULL},
    {"homog_short", "sjf", 0, 0x24ecc2afc19227b0ULL},
    {"long_job", "easy", 0, 0xbb06253a047e64a1ULL},
    {"long_job", "fcfs", 0, 0x0770f4066e6da603ULL},
    {"long_job", "sjf", 0, 0x6b8ffaa43bdaea16ULL},
    {"resource_sparse", "easy", 0, 0x7d677ed653dca569ULL},
    {"resource_sparse", "fcfs", 0, 0x7d677ed653dca569ULL},
    {"resource_sparse", "sjf", 0, 0x7d677ed653dca569ULL},
};

void expect_identical_jobs(const std::vector<sim::Job>& a, const std::vector<sim::Job>& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " job " << i;
    EXPECT_EQ(a[i].user, b[i].user) << label << " job " << i;
    EXPECT_EQ(a[i].group, b[i].group) << label << " job " << i;
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << label << " job " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << label << " job " << i;
    EXPECT_EQ(a[i].walltime, b[i].walltime) << label << " job " << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << label << " job " << i;
    EXPECT_EQ(a[i].memory_gb, b[i].memory_gb) << label << " job " << i;
    EXPECT_EQ(a[i].dependencies, b[i].dependencies) << label << " job " << i;
  }
}

void expect_identical_outcomes(const rh::RunOutcome& a, const rh::RunOutcome& b,
                               const std::string& label) {
  for (const auto metric : rm::all_metrics()) {
    EXPECT_EQ(a.metrics.get(metric), b.metrics.get(metric))
        << label << " metric " << rm::to_string(metric);
  }
  EXPECT_EQ(a.metrics.energy_kwh, b.metrics.energy_kwh) << label;
  ASSERT_EQ(a.schedule.completed.size(), b.schedule.completed.size()) << label;
  for (std::size_t i = 0; i < a.schedule.completed.size(); ++i) {
    EXPECT_EQ(a.schedule.completed[i].job.id, b.schedule.completed[i].job.id)
        << label << " job " << i;
    EXPECT_EQ(a.schedule.completed[i].start_time, b.schedule.completed[i].start_time)
        << label << " job " << i;
    EXPECT_EQ(a.schedule.completed[i].end_time, b.schedule.completed[i].end_time)
        << label << " job " << i;
  }
  ASSERT_EQ(a.schedule.decisions.size(), b.schedule.decisions.size()) << label;
  for (std::size_t i = 0; i < a.schedule.decisions.size(); ++i) {
    EXPECT_EQ(a.schedule.decisions[i].time, b.schedule.decisions[i].time)
        << label << " decision " << i;
    EXPECT_EQ(a.schedule.decisions[i].action.type, b.schedule.decisions[i].action.type)
        << label << " decision " << i;
    EXPECT_EQ(a.schedule.decisions[i].action.job_id, b.schedule.decisions[i].action.job_id)
        << label << " decision " << i;
  }
  EXPECT_EQ(a.schedule.final_time, b.schedule.final_time) << label;
  EXPECT_EQ(a.schedule.n_decisions, b.schedule.n_decisions) << label;
  EXPECT_EQ(a.schedule.n_invalid_actions, b.schedule.n_invalid_actions) << label;
  EXPECT_EQ(a.schedule.n_backfills, b.schedule.n_backfills) << label;
}

}  // namespace

TEST(ScenarioSpecGolden, CellJobsMatchPinnedDigests) {
  rh::SweepConfig config;
  config.base_seed = kSeed;
  for (const auto& pin : kPinnedCellJobs) {
    const auto jobs = rh::cell_jobs(config, pin.spec, pin.n, pin.rep);
    EXPECT_EQ(reasched::testing::jobs_digest(jobs), pin.digest)
        << pin.spec << " n=" << pin.n << " rep=" << pin.rep;
  }
}

TEST(ScenarioSpecGolden, MixCellJobsMatchPinnedDigests) {
  // The largest-remainder split of a mix: n * weight / total_weight per
  // component, remainders to the largest fractions. Uneven weights and
  // sizes that do not divide evenly pin the rounding path bit for bit.
  const PinnedJobs pins[] = {
      {"mix(long_job:0.2,resource_sparse:0.8)", 60, 0, 0x97aaf1d6c8786f56ULL},
      {"mix(homog_short:1,hetero_mix:2,adversarial:3)", 37, 1, 0xc210162a5b863b60ULL},
      {"mix(bursty_idle:0.1,long_job:0.1,high_parallel:0.1)", 10, 0, 0x0c215b96e88b42f6ULL},
  };
  rh::SweepConfig config;
  config.base_seed = kSeed;
  for (const auto& pin : pins) {
    const auto jobs = rh::cell_jobs(config, pin.spec, pin.n, pin.rep);
    EXPECT_EQ(reasched::testing::jobs_digest(jobs), pin.digest)
        << pin.spec << " n=" << pin.n << " rep=" << pin.rep;
  }
}

TEST(ScenarioSpecGolden, SweepOutcomesUnchangedByScenarioRekey) {
  // One grid over all seven scenarios x {fcfs, sjf, easy}: every cell's
  // RunOutcome matches the digest the enum-keyed sweep produced.
  rh::SweepConfig config;
  config.scenarios = rw::paper_scenario_specs();
  config.job_counts = {12};
  config.methods = {"fcfs", "sjf", "easy"};
  config.repetitions = 1;
  config.base_seed = 777;
  config.threads = 2;

  const auto results = rh::run_sweep(config);
  ASSERT_EQ(results.size(), std::size(kPinnedSweep));
  for (const auto& pin : kPinnedSweep) {
    const rh::Cell cell{pin.scenario, 12, pin.method, pin.rep};
    const auto it = results.find(cell);
    ASSERT_NE(it, results.end()) << pin.scenario << "/" << pin.method;
    EXPECT_EQ(reasched::testing::outcome_digest(it->second), pin.digest)
        << pin.scenario << "/" << pin.method << " rep=" << pin.rep;
  }

  // Labels the seed derivation keys off are the pre-redesign strings.
  EXPECT_EQ(rw::scenario_label(config.scenarios[0]), "Homogeneous Short");
  EXPECT_EQ(rw::scenario_label(config.scenarios[1]), "Heterogeneous Mix");
  EXPECT_EQ(rw::scenario_label(config.scenarios[5]), "Bursty + Idle");
}

TEST(ScenarioSpecGolden, PipedTransformDeterministicAcrossCanonicalReparse) {
  // A piped transform spec re-parsed from its canonical to_string() must
  // generate identical jobs AND produce identical sweep outcomes - the
  // canonical string is the cell's durable identity in exports.
  const rw::ScenarioSpec spec(
      "mix(long_job:0.3,hetero_mix?walltime_noise=1.0%3a2.0:0.7)"
      "|perturb?walltime_noise=1.1:1.8|dag?fanout=3&depth=3|stretch?load=1.5");
  const rw::ScenarioSpec reparsed = rw::ScenarioSpec::parse(spec.to_string());
  ASSERT_EQ(spec, reparsed);

  rh::SweepConfig config;
  config.job_counts = {20};
  config.methods = {"fcfs", "easy"};
  config.base_seed = 4242;
  config.threads = 2;

  expect_identical_jobs(rh::cell_jobs(config, spec, 20, 0),
                        rh::cell_jobs(config, reparsed, 20, 0), "piped cell_jobs");

  config.scenarios = {spec};
  const auto first = rh::run_sweep(config);
  config.scenarios = {reparsed};
  const auto second = rh::run_sweep(config);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), first.size());
  auto it_first = first.begin();
  auto it_second = second.begin();
  for (; it_first != first.end(); ++it_first, ++it_second) {
    ASSERT_EQ(it_first->first.scenario, it_second->first.scenario);
    expect_identical_outcomes(it_first->second, it_second->second,
                              "piped " + rh::method_label(it_first->first.method));
  }
}
