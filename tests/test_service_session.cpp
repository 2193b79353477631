#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "service/session.hpp"
#include "util/json_parser.hpp"

namespace ro = reasched::obs;
namespace rsvc = reasched::service;
namespace ru = reasched::util;

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

TEST(ServiceLoop, OversizedAndDeepLinesAreAnsweredAndTheSessionKeepsServing) {
  rsvc::ServiceEngine engine(fcfs_config());
  std::string script = std::string(50000, '[') + "\n";
  script += std::string(rsvc::kMaxRequestBytes + 1, ' ') + "\n";
  script += "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n";
  script += std::string(rsvc::kMaxRequestBytes, ' ');  // at the limit, at EOF
  std::istringstream in(script);
  std::ostringstream out;
  const rsvc::LoopStats stats = rsvc::run_service_loop(engine, in, out);
  EXPECT_EQ(stats.n_requests, 4u);
  EXPECT_EQ(stats.n_errors, 3u);
  EXPECT_EQ(engine.status().n_buffered, 1u);  // the submit after both landed

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("nesting deeper than"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("line exceeds"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2], "{\"ok\":true,\"op\":\"submit\",\"id\":1}");
  EXPECT_NE(lines[3].find("invalid JSON"), std::string::npos) << lines[3];
}

namespace {

/// Run `script` through the service loop and parse the last response line.
ru::JsonValue last_response(rsvc::ServiceEngine& engine, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  (void)rsvc::run_service_loop(engine, in, out);
  std::string last;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) last = line;
  return ru::parse_json(last);
}

/// Every engine counter of a stats response against the session's own
/// values at the moment it was answered.
void expect_stats_match_session(const ru::JsonValue& stats, const rsvc::ServiceEngine& engine) {
  ASSERT_EQ(stats.at("op").as_string(), "stats");
  EXPECT_FALSE(stats.contains("histograms"));
  const rsvc::ServiceStatus status = engine.status();
  const auto& r = engine.schedule_view();
  const std::vector<std::pair<std::string, double>> expected = {
      {"engine/backfills", static_cast<double>(r.n_backfills)},
      {"engine/completed_jobs", static_cast<double>(status.n_completed)},
      {"engine/decisions", static_cast<double>(status.n_decisions)},
      {"engine/forced_delays", static_cast<double>(r.n_forced_delays)},
      {"engine/invalid_actions", static_cast<double>(r.n_invalid_actions)},
      {"engine/steps", static_cast<double>(status.steps)}};
  const auto& counters = stats.at("counters");
  EXPECT_EQ(counters.size(), expected.size());
  for (const auto& [name, value] : expected) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(counters.contains(name));
    EXPECT_EQ(counters.at(name).as_number(), value);
  }
  EXPECT_EQ(stats.at("gauges").at("service/completed").as_number(),
            static_cast<double>(status.n_completed));
}

}  // namespace

// `stats` reads the session when the request arrives: exact engine counters
// with span recording off or on, and still exact after `drain` has moved the
// engine's result out (the drained stats agree with the drain line).
TEST(ServiceLoop, StatsReadsTheSessionWithTelemetryOffAndOn) {
  struct Restore {
    ~Restore() {
      ro::set_enabled(false);
      ro::TraceRecorder::global().clear();
    }
  } restore;
  for (const bool telemetry : {false, true}) {
    SCOPED_TRACE(telemetry ? "telemetry on" : "telemetry off");
    ro::set_enabled(telemetry);
    rsvc::ServiceConfig config;
    config.method = "easy";
    config.seed = 7;
    config.stream = reasched::workload::make_stream_spec("bursty_idle", 50, 2, 1.0);
    rsvc::ServiceEngine engine(config);

    const std::string script =
        "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n"
        "{\"op\":\"advance\",\"to\":3000}\n"
        "{\"op\":\"stats\"}\n";
    const ru::JsonValue live = last_response(engine, script);
    EXPECT_EQ(live.at("obs_enabled").as_bool(), telemetry);
    expect_stats_match_session(live, engine);
    EXPECT_GT(live.at("counters").at("engine/completed_jobs").as_number(), 0.0);
    EXPECT_GT(live.at("counters").at("engine/backfills").as_number(), 0.0);

    const ru::JsonValue drain = last_response(engine, "{\"op\":\"drain\"}\n");
    ASSERT_EQ(drain.at("op").as_string(), "drain");
    const ru::JsonValue drained = last_response(engine, "{\"op\":\"stats\"}\n");
    expect_stats_match_session(drained, engine);
    EXPECT_EQ(drained.at("counters").at("engine/completed_jobs").as_number(),
              drain.at("completed").as_number());
  }
}
