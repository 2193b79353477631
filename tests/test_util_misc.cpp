#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time_format.hpp"

namespace ru = reasched::util;

TEST(TextTable, RendersHeaderAndRows) {
  ru::TextTable t({"Metric", "Value"});
  t.add_row({"Makespan", "1.000"});
  t.add_rule();
  t.add_row({"Throughput", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Metric"), std::string::npos);
  EXPECT_NE(out.find("Makespan"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  // Rule before second row => at least 4 horizontal rules total.
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_GE(rules, 4u);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(ru::TextTable::num(1.23456, 3), "1.235");
  EXPECT_EQ(ru::TextTable::ratio(1.5), "1.500x");
  EXPECT_EQ(ru::TextTable::pct(0.123), "12.3%");
  EXPECT_EQ(ru::TextTable::na(), "n/a");
}

TEST(TextTable, RightAlignsEveryCellThatStartsWithADigit) {
  // Durations mix digits and unit letters; a column of them must still line
  // up on the right, while "n/a" and labels stay left-aligned.
  ru::TextTable t({"Elapsed", "Label"});
  t.add_row({"40.3s", "Claude 3.7"});
  t.add_row({"3m 4.1s", "n/a"});
  t.add_row({"-1.5", "+x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("|   40.3s | Claude 3.7 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 3m 4.1s | n/a        |"), std::string::npos) << out;
  EXPECT_NE(out.find("|    -1.5 | +x         |"), std::string::npos) << out;
}

TEST(TextTable, ShortRowsPadded) {
  ru::TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

TEST(JsonWriter, ObjectWithNesting) {
  ru::JsonWriter w;
  w.begin_object()
      .kv("name", "fig3")
      .kv("jobs", 60)
      .kv("ratio", 1.5)
      .kv("ok", true)
      .key("series")
      .begin_array()
      .value(1.0)
      .value(2.0)
      .end_array()
      .key("nothing")
      .null()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"fig3\",\"jobs\":60,\"ratio\":1.5,\"ok\":true,"
            "\"series\":[1,2],\"nothing\":null}");
}

TEST(JsonWriter, EscapesControlCharacters) {
  ru::JsonWriter w;
  w.begin_object().kv("s", "line\nbreak \"q\" \\ tab\t").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"line\\nbreak \\\"q\\\" \\\\ tab\\t\"}");
}

TEST(JsonWriter, UnbalancedEndThrows) {
  ru::JsonWriter w;
  EXPECT_THROW(w.end_object(), std::logic_error);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  ru::JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Cli, ParsesAllForms) {
  // Note: a bare "--flag" consumes a following non-flag token as its value,
  // so positionals come first (or use the "--name=value" form).
  const char* argv[] = {"prog", "positional", "--jobs=60", "--seed", "42", "--static"};
  const ru::CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("jobs", 0), 60);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.has("static"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, BadNumbersAreRejected) {
  // A value that does not parse is an error naming the flag and the value,
  // never a silent fallback to the default.
  const auto expect_rejected = [](const char* arg, bool as_double, const std::string& flag,
                                  const std::string& value) {
    const char* argv[] = {"prog", arg};
    const ru::CliArgs args(2, argv);
    try {
      if (as_double) {
        (void)args.get_double(flag, 1.0);
      } else {
        (void)args.get_int(flag, 7);
      }
      ADD_FAILURE() << arg << " should be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  };
  expect_rejected("--jobs=abc", false, "jobs", "abc");
  expect_rejected("--jobs=12x", false, "jobs", "12x");
  expect_rejected("--rate=nan", true, "rate", "nan");

  // Absent flags still yield the fallback.
  const char* argv[] = {"prog", "--jobs=12"};
  const ru::CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("jobs", 7), 12);
  EXPECT_EQ(args.get_int("seed", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
}

namespace {

// The message a CliArgs read throws, or "accepted".
std::string rejection(const std::function<void()>& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

}  // namespace

TEST(Cli, BoundedGettersRejectOutOfRangeValues) {
  const char* argv[] = {"prog", "--jobs=-5", "--reps=0", "--seed=-3", "--window=64"};
  const ru::CliArgs args(5, argv);
  // A negative count is an error, never a wrap to SIZE_MAX.
  EXPECT_EQ(rejection([&] { args.get_size("jobs", 60); }),
            "--jobs must be in [0, 2147483647], got '-5'");
  EXPECT_EQ(rejection([&] { args.get_size("reps", 3, 1); }),
            "--reps must be in [1, 2147483647], got '0'");
  EXPECT_EQ(rejection([&] { args.get_int("window", 8, 1, 32); }),
            "--window must be in [1, 32], got '64'");
  // The two-argument form keeps its full range; an absent flag returns the
  // fallback unchecked.
  EXPECT_EQ(args.get_int("seed", 42), -3);
  EXPECT_EQ(args.get_size("window", 1, 1, 64), 64u);
  EXPECT_EQ(args.get_size("threads", 0, 1), 0u);
}

TEST(Cli, SizeListGetterChecksEveryToken) {
  const auto sizes = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    return ru::CliArgs(2, argv).get_sizes("jobs", {7, 8});
  };
  EXPECT_EQ(sizes("--jobs=1000,10000"), (std::vector<std::size_t>{1000, 10000}));
  EXPECT_EQ(sizes("--jobs= 5"), (std::vector<std::size_t>{5}));
  EXPECT_EQ(sizes("--other=1"), (std::vector<std::size_t>{7, 8}));
  for (const char* bad : {"--jobs=1x", "--jobs=-5", "--jobs=10,,20", "--jobs=10,", "--jobs=",
                          "--jobs=0", "--jobs=99999999999"}) {
    EXPECT_EQ(rejection([&] { sizes(bad); }).rfind("--jobs ", 0), 0u) << bad;
  }
}

TEST(Cli, RunMainTurnsAnEscapedExceptionIntoOneLineAndExitOne) {
  const char* argv[] = {"/some/dir/prog", "--jobs", "1x"};
  const auto has_jobs = [](const ru::CliArgs& args) { return args.has("jobs") ? 7 : 0; };
  EXPECT_EQ(ru::run_main(3, argv, {"jobs"}, has_jobs), 7);

  const auto read_jobs = [](const ru::CliArgs& args) {
    return static_cast<int>(args.get_size("jobs", 1));
  };
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ru::run_main(3, argv, {"jobs"}, read_jobs), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "prog: --jobs expects an integer, got '1x'\n");
}

TEST(Cli, RunMainRefusesUnlistedFlags) {
  // A misspelt flag must not run the defaults: `run` is never called.
  bool ran = false;
  const auto run = [&](const ru::CliArgs&) {
    ran = true;
    return 0;
  };
  const char* typo[] = {"/bin/quickstart", "--seed", "4", "--jbos=3"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ru::run_main(4, typo, {"jobs", "seed"}, run), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "quickstart: unknown flag --jbos (accepted: --jobs, --seed)\n");
  EXPECT_FALSE(ran);

  const char* flag[] = {"repro", "fig3", "--foo"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ru::run_main(3, flag, {}, run), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "repro: unknown flag --foo (accepted: none)\n");
  EXPECT_FALSE(ran);

  const char* listed[] = {"quickstart", "--jobs", "3", "--seed=4", "positional"};
  EXPECT_EQ(ru::run_main(5, listed, {"jobs", "seed"}, run), 0);
  EXPECT_TRUE(ran);
}

TEST(TimeFormat, Durations) {
  EXPECT_EQ(ru::format_duration(5.5), "5.5s");
  EXPECT_EQ(ru::format_duration(65.0), "1m 5.0s");
  EXPECT_EQ(ru::format_duration(3661.0), "1h 1m 1s");
  EXPECT_EQ(ru::format_duration(-5.0), "-5.0s");
}

TEST(TimeFormat, SimTime) {
  EXPECT_EQ(ru::format_sim_time(1554.0), "[t=1554]");
  EXPECT_EQ(ru::format_sim_time(2.5), "[t=2.50]");
}

TEST(ThreadPool, ParallelForRunsAll) {
  ru::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ru::ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ru::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}
