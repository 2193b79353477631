// util::ThreadPool contract tests plus a concurrent-cell-completion
// regression for run_sweep_streaming's on_cell sink. These are the units the
// TSan CI job exists for: every assertion here is also a race detector probe
// when built with REASCHED_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "golden_digest_test_helper.hpp"
#include "harness/sweep.hpp"
#include "util/thread_pool.hpp"

namespace ru = reasched::util;
namespace rh = reasched::harness;

namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ru::ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ru::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ru::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  ru::ThreadPool def(0);
  EXPECT_GE(def.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ru::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  ru::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("unlucky");
                                   completed.fetch_add(1, std::memory_order_relaxed);
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
  ru::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(ThreadPool, ConcurrentSubmittersDoNotLoseTasks) {
  ru::ThreadPool pool(4);
  constexpr int kPerSubmitter = 200;
  std::atomic<int> sum{0};
  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures[4];
  std::mutex mu;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto fut = pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
        std::lock_guard lock(mu);
        futures[s].push_back(std::move(fut));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(sum.load(), 4 * kPerSubmitter);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  auto pool = std::make_unique<ru::ThreadPool>(1);
  auto fut = pool->submit([] { return 1; });
  EXPECT_EQ(fut.get(), 1);
  pool.reset();  // joins workers; a new pool still works afterwards
  ru::ThreadPool fresh(1);
  EXPECT_EQ(fresh.submit([] { return 2; }).get(), 2);
}

// Regression: concurrent cell completion through run_sweep_streaming's
// on_cell sink. The sink must be mutually excluded (the harness serializes
// `on_cell`), called exactly once per cell, and the streamed reduction must
// be independent of thread count.
TEST(SweepStreaming, ConcurrentOnCellSinkIsSerializedAndComplete) {
  rh::SweepConfig config;
  config.scenarios = {"homog_short", "long_job"};
  config.job_counts = {12};
  config.methods = {"fcfs", "sjf", "easy"};
  config.repetitions = 3;
  config.base_seed = 7;
  config.threads = 4;

  std::atomic<int> in_sink{0};
  std::atomic<int> max_in_sink{0};
  std::set<rh::Cell> seen;
  const auto streamed = rh::run_sweep_streaming(
      config, [&](const rh::Cell& cell, const rh::RunOutcome& outcome) {
        const int depth = in_sink.fetch_add(1) + 1;
        int prev = max_in_sink.load();
        while (depth > prev && !max_in_sink.compare_exchange_weak(prev, depth)) {
        }
        EXPECT_GT(outcome.metrics.makespan, 0.0);
        EXPECT_TRUE(seen.insert(cell).second) << "sink called twice for one cell";
        in_sink.fetch_sub(1);
      });
  EXPECT_EQ(max_in_sink.load(), 1) << "on_cell sink ran concurrently";
  EXPECT_EQ(seen.size(), 2u * 3u * 3u);
  EXPECT_EQ(streamed.cells.size(), seen.size());

  // Same grid on one thread: bit-identical cells and groups.
  config.threads = 1;
  EXPECT_EQ(reasched::testing::sweep_digest(rh::run_sweep_streaming(config)),
            reasched::testing::sweep_digest(streamed));
}

}  // namespace
