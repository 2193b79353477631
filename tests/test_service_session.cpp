#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/session.hpp"

namespace rsvc = reasched::service;

// ---------------------------------------------------------------------------
// MessageQueue: the MPSC contract (ThreadPool-style tests; the TSan CI job
// runs these with real thread interleavings).
// ---------------------------------------------------------------------------

TEST(MessageQueue, FifoWithinOneProducer) {
  rsvc::MessageQueue queue(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.push(rsvc::Envelope{1, i, std::to_string(i)}));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto e = queue.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->seq, i);
    EXPECT_EQ(e->line, std::to_string(i));
  }
}

TEST(MessageQueue, PushBlocksWhenFullUntilConsumed) {
  rsvc::MessageQueue queue(1);
  ASSERT_TRUE(queue.push(rsvc::Envelope{1, 0, "first"}));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    queue.push(rsvc::Envelope{1, 1, "second"});
    second_pushed.store(true);
  });
  // The producer must be parked on the full queue, not spinning through.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(queue.pop()->line, "first");
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.pop()->line, "second");
}

TEST(MessageQueue, CloseDrainsBacklogThenSignalsEnd) {
  rsvc::MessageQueue queue(8);
  queue.push(rsvc::Envelope{1, 0, "a"});
  queue.push(rsvc::Envelope{1, 1, "b"});
  queue.close();
  EXPECT_FALSE(queue.push(rsvc::Envelope{1, 2, "rejected"}));
  EXPECT_EQ(queue.pop()->line, "a");  // backlog still drains after close
  EXPECT_EQ(queue.pop()->line, "b");
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
}

TEST(MessageQueue, CloseWakesBlockedProducersAndConsumer) {
  rsvc::MessageQueue full(1);
  ASSERT_TRUE(full.push(rsvc::Envelope{1, 0, "x"}));
  std::thread producer([&] {
    EXPECT_FALSE(full.push(rsvc::Envelope{1, 1, "y"}));  // woken by close
  });
  rsvc::MessageQueue empty(1);
  std::thread consumer([&] {
    EXPECT_FALSE(empty.pop().has_value());  // woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(MessageQueue, ManyProducersOneConsumerDeliversEverything) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 200;
  rsvc::MessageQueue queue(16);  // small: forces backpressure contention
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(rsvc::Envelope{p + 1, i, "m"}));
      }
    });
  }
  std::vector<std::uint64_t> next_seq(kProducers + 1, 0);
  std::size_t received = 0;
  std::thread consumer([&] {
    while (auto e = queue.pop()) {
      // Per-producer FIFO survives the interleaving.
      EXPECT_EQ(e->seq, next_seq[e->session]);
      ++next_seq[e->session];
      ++received;
    }
  });
  for (std::thread& t : producers) t.join();
  queue.close();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

// ---------------------------------------------------------------------------
// SessionTable / ResultSink
// ---------------------------------------------------------------------------

TEST(SessionTable, TracksPerSessionAccounting) {
  rsvc::SessionTable table;
  const std::uint64_t a = table.open("alpha");
  const std::uint64_t b = table.open("beta");
  EXPECT_NE(a, b);
  table.record(a, /*ok=*/true);
  table.record(a, /*ok=*/false);
  table.record(b, /*ok=*/true);
  EXPECT_EQ(table.total_requests(), 3u);
  EXPECT_EQ(table.n_open(), 2u);
  table.close(a);
  EXPECT_EQ(table.n_open(), 1u);

  const std::vector<rsvc::SessionInfo> snapshot = table.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[0].n_requests, 2u);
  EXPECT_EQ(snapshot[0].n_errors, 1u);
  EXPECT_FALSE(snapshot[0].open);
  EXPECT_THROW(table.record(999, true), std::invalid_argument);
  EXPECT_THROW(table.close(999), std::invalid_argument);
}

TEST(SessionTable, ConcurrentOpenAndRecordStaysConsistent) {
  rsvc::SessionTable table;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      const std::uint64_t id = table.open("worker-" + std::to_string(t));
      for (std::size_t i = 0; i < kRequests; ++i) table.record(id, i % 7 != 0);
      table.close(id);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(table.total_requests(), kThreads * kRequests);
  EXPECT_EQ(table.n_open(), 0u);
}

TEST(ResultSink, AppendsAtomicLines) {
  std::ostringstream out;
  rsvc::ResultSink sink(&out, /*keep=*/true);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < 50; ++i) sink.append("response");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.count(), 200u);
  EXPECT_EQ(sink.lines().size(), 200u);
  // The tee'd stream got exactly count() newline-terminated lines.
  std::size_t newlines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++newlines;
  }
  EXPECT_EQ(newlines, 200u);
}

// ---------------------------------------------------------------------------
// Service loop over a scripted protocol session.
// ---------------------------------------------------------------------------

namespace {

rsvc::ServiceConfig fcfs_config(std::uint64_t seed = 5) {
  rsvc::ServiceConfig config;
  config.method = "fcfs";
  config.seed = seed;
  return config;
}

}  // namespace

TEST(ServiceLoop, ScriptedSessionProducesOneResponsePerRequest) {
  rsvc::ServiceEngine engine(fcfs_config());
  std::istringstream in(
      "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n"
      "{\"op\":\"submit\",\"job\":{\"duration\":30,\"nodes\":2}}\n"
      "\n"  // blank lines are ignored, not errors
      "{\"op\":\"query\"}\n"
      "{\"op\":\"advance\",\"to\":100}\n"
      "{\"op\":\"cancel\",\"id\":77}\n"  // unknown id: error line, keep serving
      "{\"op\":\"drain\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"query\"}\n");  // after shutdown: never read
  std::ostringstream out;
  const rsvc::LoopStats stats = rsvc::run_service_loop(engine, in, out);
  EXPECT_EQ(stats.n_requests, 7u);
  EXPECT_EQ(stats.n_errors, 1u);
  EXPECT_TRUE(stats.shutdown);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "{\"ok\":true,\"op\":\"submit\",\"id\":1}");
  EXPECT_EQ(lines[1], "{\"ok\":true,\"op\":\"submit\",\"id\":2}");
  EXPECT_EQ(lines[4].rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(lines[6], "{\"ok\":true,\"op\":\"shutdown\"}");
}

TEST(ServiceLoop, MalformedLinesBecomeErrorsNotCrashes) {
  rsvc::ServiceEngine engine(fcfs_config());
  std::istringstream in(
      "this is not json\n"
      "{\"op\":\"warp\"}\n"
      "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n");
  std::ostringstream out;
  const rsvc::LoopStats stats = rsvc::run_service_loop(engine, in, out);
  EXPECT_EQ(stats.n_requests, 3u);
  EXPECT_EQ(stats.n_errors, 2u);
  EXPECT_FALSE(stats.shutdown);  // ended by EOF
  EXPECT_EQ(engine.status().n_buffered, 1u);  // the valid submit landed
}

// ---------------------------------------------------------------------------
// Concurrent stress harness: >= 4 submitter threads through the shared
// queue/table/sink into one engine. This is the designated TSan target.
// ---------------------------------------------------------------------------

TEST(ConcurrentSession, FourSubmittersEveryRequestAccounted) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kRequests = 50;
  rsvc::ServiceEngine engine(fcfs_config(17));
  rsvc::SessionTable sessions;
  rsvc::ResultSink sink(nullptr, /*keep=*/true);
  const rsvc::LoopStats stats =
      rsvc::run_concurrent_session(engine, kSubmitters, kRequests, sessions, sink);

  EXPECT_EQ(stats.n_requests, kSubmitters * kRequests);
  EXPECT_EQ(sessions.total_requests(), kSubmitters * kRequests);
  EXPECT_EQ(sink.count(), kSubmitters * kRequests);
  EXPECT_EQ(sessions.n_open(), 0u);
  EXPECT_EQ(sessions.snapshot().size(), kSubmitters);
  // Whatever the interleaving admitted, the session must still be able to
  // run its accepted jobs to completion.
  const rsvc::DrainResult result = engine.drain();
  EXPECT_GT(result.schedule.completed.size(), 0u);
  for (const std::string& line : sink.lines()) {
    EXPECT_TRUE(line.rfind("{\"ok\":", 0) == 0) << line;
  }
}

TEST(ConcurrentSession, EightSubmittersSurviveSmallQueue) {
  rsvc::ServiceEngine engine(fcfs_config(23));
  rsvc::SessionTable sessions;
  rsvc::ResultSink sink(nullptr, /*keep=*/false);
  const rsvc::LoopStats stats =
      rsvc::run_concurrent_session(engine, /*n_submitters=*/8,
                                   /*requests_per_submitter=*/40, sessions, sink);
  EXPECT_EQ(stats.n_requests, 320u);
  EXPECT_EQ(sink.count(), 320u);
  EXPECT_TRUE(sink.lines().empty());  // keep=false retains nothing
}
