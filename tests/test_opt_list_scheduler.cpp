#include <gtest/gtest.h>

#include <numeric>

#include "opt/list_scheduler.hpp"
#include "opt/resource_profile.hpp"
#include "util/rng.hpp"

namespace ro = reasched::opt;
namespace rs = reasched::sim;

namespace {
rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  return j;
}

ro::Problem paper_problem(std::vector<rs::Job> jobs, double now = 0.0) {
  ro::Problem p;
  p.now = now;
  p.total_nodes = 256;
  p.total_memory_gb = 2048;
  p.jobs = std::move(jobs);
  return p;
}
}  // namespace

TEST(ListScheduler, SequentialWhenJobsAreFullWidth) {
  const auto p = paper_problem({make_job(1, 256, 100, 50), make_job(2, 256, 100, 70)});
  const auto plan = ro::decode_order(p, {0, 1});
  EXPECT_DOUBLE_EQ(plan.start_times.at(1), 0.0);
  EXPECT_DOUBLE_EQ(plan.start_times.at(2), 50.0);
  EXPECT_DOUBLE_EQ(plan.makespan, 120.0);
  EXPECT_DOUBLE_EQ(plan.total_wait, 50.0);
}

TEST(ListScheduler, PacksParallelWhenPossible) {
  const auto p = paper_problem(
      {make_job(1, 100, 100, 50), make_job(2, 100, 100, 50), make_job(3, 56, 100, 50)});
  const auto plan = ro::decode_order(p, {0, 1, 2});
  for (int id = 1; id <= 3; ++id) EXPECT_DOUBLE_EQ(plan.start_times.at(id), 0.0);
  EXPECT_DOUBLE_EQ(plan.makespan, 50.0);
}

TEST(ListScheduler, OrderMatters) {
  // Short job first vs last changes the wait profile.
  const auto p = paper_problem({make_job(1, 256, 100, 100), make_job(2, 256, 100, 10)});
  const auto long_first = ro::decode_order(p, {0, 1});
  const auto short_first = ro::decode_order(p, {1, 0});
  EXPECT_DOUBLE_EQ(long_first.makespan, short_first.makespan);  // both 110
  EXPECT_LT(short_first.total_wait, long_first.total_wait);  // 10 vs 100
}

TEST(ListScheduler, RespectsReleaseTimes) {
  const auto p =
      paper_problem({make_job(1, 1, 1, 10, 0.0), make_job(2, 1, 1, 10, 500.0)});
  const auto plan = ro::decode_order(p, {1, 0});  // tries late job first
  EXPECT_DOUBLE_EQ(plan.start_times.at(2), 500.0);
  // Job 1 in second position starts no earlier than the previous start.
  EXPECT_GE(plan.start_times.at(1), 500.0);
}

TEST(ListScheduler, RespectsPinnedResources) {
  auto p = paper_problem({make_job(1, 200, 100, 10)});
  p.pinned.push_back({/*end_time=*/100.0, /*nodes=*/100, /*memory_gb=*/50.0});
  const auto plan = ro::decode_order(p, {0});
  EXPECT_DOUBLE_EQ(plan.start_times.at(1), 100.0);  // must wait for the pin
}

TEST(ListScheduler, RejectsSizeMismatch) {
  const auto p = paper_problem({make_job(1, 1, 1, 10)});
  EXPECT_THROW(ro::decode_order(p, {0, 1}), std::invalid_argument);
}

TEST(ListScheduler, SeedOrders) {
  const auto p = paper_problem({make_job(1, 4, 1, 300, 2.0), make_job(2, 16, 1, 100, 1.0),
                                make_job(3, 2, 1, 200, 3.0)});
  EXPECT_EQ(ro::order_by_arrival(p), (std::vector<std::size_t>{1, 0, 2}));
  EXPECT_EQ(ro::order_spt(p), (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(ro::order_lpt(p), (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(ro::order_widest(p), (std::vector<std::size_t>{1, 0, 2}));
}

// Property: any permutation decodes to a capacity-feasible plan (checked
// against the instant-by-instant ResourceProfile oracle) with starts after
// releases.
class DecodeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeProperty, FeasibleForRandomInstancesAndOrders) {
  reasched::util::Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 18));
  std::vector<rs::Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(make_job(static_cast<int>(i + 1),
                            static_cast<int>(rng.uniform_int(1, 256)),
                            rng.uniform_real(1.0, 2048.0), rng.uniform_real(1.0, 500.0),
                            rng.uniform_real(0.0, 100.0)));
  }
  auto p = paper_problem(jobs, /*now=*/rng.uniform_real(0.0, 50.0));
  if (rng.bernoulli(0.5)) {
    p.pinned.push_back({p.now + rng.uniform_real(1.0, 200.0),
                        static_cast<int>(rng.uniform_int(1, 128)),
                        rng.uniform_real(1.0, 512.0)});
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  const auto plan = ro::decode_order(p, order);
  ASSERT_EQ(plan.start_times.size(), n);

  ro::ResourceProfile oracle(p.total_nodes, p.total_memory_gb);
  for (const auto& pin : p.pinned) {
    oracle.add(0.0, pin.end_time, pin.nodes, pin.memory_gb);
  }
  for (const auto& job : p.jobs) {
    const double start = plan.start_times.at(job.id);
    EXPECT_GE(start, std::max(p.now, job.submit_time) - 1e-9);
    ASSERT_NO_THROW(oracle.add(start, job.duration, job.nodes, job.memory_gb))
        << "infeasible placement for job " << job.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeProperty, ::testing::Range<std::uint64_t>(0, 30));
