// Property suite for the dependency extension (paper Section 6): random
// DAGs scheduled by every method must respect precedence - no job starts
// before all of its dependencies have completed.

#include <gtest/gtest.h>

#include <map>

#include "harness/methods.hpp"
#include "sched/fcfs.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "util/rng.hpp"

namespace rs = reasched::sim;
namespace rh = reasched::harness;

namespace {

/// Random DAG: edges only from lower to higher ids (guarantees acyclicity);
/// density and shape vary with the seed.
std::vector<rs::Job> random_dag_jobs(std::uint64_t seed, std::size_t n) {
  reasched::util::Rng rng(seed);
  std::vector<rs::Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rs::Job j;
    j.id = static_cast<int>(i + 1);
    j.user = 1 + static_cast<int>(rng.uniform_int(0, 3));
    j.nodes = static_cast<int>(rng.uniform_int(1, 64));
    j.memory_gb = rng.uniform_real(1.0, 256.0);
    j.duration = j.walltime = rng.uniform_real(10.0, 300.0);
    j.submit_time = rng.uniform_real(0.0, 50.0);
    for (std::size_t k = 0; k < i; ++k) {
      if (rng.bernoulli(0.15)) j.dependencies.push_back(static_cast<int>(k + 1));
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Methods under test, each with the first of its three DAG seeds.
const struct {
  const char* spec;
  std::uint64_t first_seed;
} kDagMethods[] = {{"fcfs", 9000},           {"sjf", 9003},  {"opt:portfolio", 9009},
                   {"agent:claude37", 9012}, {"easy", 9006}};

struct DagCase {
  std::size_t method;  ///< index into kDagMethods
  std::uint64_t seed;
};

}  // namespace

class DagInvariants : public ::testing::TestWithParam<DagCase> {};

TEST_P(DagInvariants, DependenciesNeverViolated) {
  const auto& p = GetParam();
  const auto jobs = random_dag_jobs(p.seed, 20);
  const auto scheduler = rh::make_scheduler(kDagMethods[p.method].spec, p.seed);
  rs::Engine engine;
  const auto result = engine.run(jobs, *scheduler);
  ASSERT_EQ(result.completed.size(), jobs.size());

  std::map<rs::JobId, const rs::CompletedJob*> by_id;
  for (const auto& c : result.completed) by_id[c.job.id] = &c;
  for (const auto& c : result.completed) {
    for (const rs::JobId dep : c.job.dependencies) {
      EXPECT_GE(c.start_time, by_id.at(dep)->end_time - 1e-9)
          << "job " << c.job.id << " started before dependency " << dep
          << " finished under " << kDagMethods[p.method].spec;
    }
  }
}

namespace {
std::vector<DagCase> dag_cases() {
  std::vector<DagCase> cases;
  for (std::size_t m = 0; m < std::size(kDagMethods); ++m) {
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      cases.push_back({m, kDagMethods[m].first_seed + rep});
    }
  }
  return cases;
}

std::string dag_case_name(const ::testing::TestParamInfo<DagCase>& info) {
  std::string s = rh::method_label(kDagMethods[info.param.method].spec) + "_" +
                  std::to_string(info.param.seed);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(RandomDags, DagInvariants, ::testing::ValuesIn(dag_cases()),
                         dag_case_name);

TEST(DagScheduling, DiamondCriticalPath) {
  // 1 -> {2, 3} -> 4 with ample resources: makespan is the critical path.
  std::vector<rs::Job> jobs(4);
  for (int i = 0; i < 4; ++i) {
    jobs[i].id = i + 1;
    jobs[i].user = 1;
    jobs[i].nodes = 4;
    jobs[i].memory_gb = 8;
  }
  jobs[0].duration = jobs[0].walltime = 100;
  jobs[1].duration = jobs[1].walltime = 200;
  jobs[1].dependencies = {1};
  jobs[2].duration = jobs[2].walltime = 150;
  jobs[2].dependencies = {1};
  jobs[3].duration = jobs[3].walltime = 50;
  jobs[3].dependencies = {2, 3};

  for (const auto method : {"fcfs", "agent:claude37"}) {
    const auto scheduler = rh::make_scheduler(method, 1);
    rs::Engine engine;
    const auto result = engine.run(jobs, *scheduler);
    EXPECT_DOUBLE_EQ(result.find(4).start_time, 300.0) << rh::method_label(method);
    EXPECT_DOUBLE_EQ(result.final_time, 350.0) << rh::method_label(method);
  }
}

TEST(DagScheduling, PromotionStormFanOut) {
  // DAG-heavy regression for the O(log n) ineligible-promotion index: one
  // root fans out to a large blocked cohort that all arrives before the
  // root finishes, so its completion promotes every dependent in one event
  // (the seed's std::find-based erase made this O(|blocked|^2)). The run
  // must complete with every dependent starting at/after the root's end.
  constexpr int kDependents = 2000;
  std::vector<rs::Job> jobs;
  jobs.reserve(kDependents + 1);
  rs::Job root;
  root.id = 1;
  root.user = 1;
  root.nodes = 256;  // monopolize the cluster so nothing overtakes it
  root.memory_gb = 2048;
  root.duration = root.walltime = 500.0;
  jobs.push_back(root);
  for (int i = 0; i < kDependents; ++i) {
    rs::Job j;
    j.id = 2 + i;
    j.user = 1 + i % 5;
    j.nodes = 1 + i % 8;
    j.memory_gb = 2.0 + i % 16;
    j.duration = j.walltime = 5.0 + i % 40;
    j.submit_time = 1.0 + 0.1 * i;  // all arrive while the root runs
    j.dependencies = {1};
    jobs.push_back(std::move(j));
  }

  reasched::sched::FcfsScheduler fcfs;
  rs::Engine engine;
  const auto result = engine.run(jobs, fcfs);
  ASSERT_EQ(result.completed.size(), jobs.size());
  const double root_end = result.find(1).end_time;
  for (const auto& c : result.completed) {
    if (c.job.id == 1) continue;
    EXPECT_GE(c.start_time, root_end) << "job " << c.job.id;
  }
}

TEST(DagScheduling, PromotionOrderMatchesReferenceEngine) {
  // Mixed promotions and arrivals: the indexed table's ineligible ordering
  // and promotion path must stay bit-identical to the seed-semantics
  // ReferenceEngine across random DAGs.
  for (const std::uint64_t seed : {3u, 17u, 41u}) {
    const auto jobs = random_dag_jobs(seed, 120);
    reasched::sched::FcfsScheduler fcfs;
    rs::Engine indexed;
    rs::ReferenceEngine reference;
    const auto got = indexed.run(jobs, fcfs);
    const auto want = reference.run(jobs, fcfs);
    ASSERT_EQ(got.completed.size(), want.completed.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.completed.size(); ++i) {
      ASSERT_EQ(got.completed[i].job.id, want.completed[i].job.id);
      EXPECT_DOUBLE_EQ(got.completed[i].start_time, want.completed[i].start_time)
          << "seed " << seed << " job " << got.completed[i].job.id;
    }
    EXPECT_EQ(got.n_decisions, want.n_decisions) << "seed " << seed;
  }
}
