#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "service/snapshot.hpp"
#include "workload/arrival_stream.hpp"

namespace rm = reasched::metrics;
namespace rsvc = reasched::service;
namespace rs = reasched::sim;
namespace rw = reasched::workload;

// Checkpoint round-trip property golden: a reference session executes a
// fixed op sequence; for every prefix length k we checkpoint the session
// after k ops, restore from the snapshot text, and demand (a) the restored
// digest equals the reference digest at k and (b) replaying the remaining
// ops plus the final drain lands on the bit-identical decision trace and
// MetricSet. This is the exactness claim behind service checkpoint/restart:
// a snapshot is config + op log, and replay reproduces the session.

namespace {

rsvc::ServiceConfig session_config() {
  rsvc::ServiceConfig config;
  config.method = reasched::harness::MethodSpec::parse("easy");
  config.seed = 424242;
  // A streamed source makes restore non-trivial: the restored session must
  // re-derive the stream state purely from config + replayed advances.
  config.stream = rw::make_stream_spec("bursty_idle", 16, 1, 1.0);
  return config;
}

rs::Job client_job(double submit, double duration, int nodes) {
  rs::Job j;
  j.submit_time = submit;
  j.duration = duration;
  j.walltime = duration;
  j.nodes = nodes;
  j.memory_gb = 8.0;
  j.user = 9;
  return j;
}

// The scripted client: interleaves external submissions and a cancel with
// clock advances that pull stream arrivals in. Returns the logged ops.
std::vector<rsvc::Request> drive_reference(rsvc::ServiceEngine& engine) {
  engine.advance_to(10.0);
  const rs::JobId a = engine.submit(client_job(20.0, 300.0, 8));
  engine.advance_to(50.0);
  engine.submit(client_job(60.0, 120.0, 4));
  const rs::JobId doomed = engine.submit(client_job(400.0, 1e6, 16));
  engine.advance_to(200.0);
  engine.cancel(doomed);
  engine.submit(client_job(250.0, 40.0, 2));
  engine.advance_to(600.0);
  (void)a;
  return engine.ops();
}

struct FinalState {
  std::uint64_t digest = 0;
  std::string trace;
  rm::MetricSet metrics;
};

FinalState finish(rsvc::ServiceEngine& engine) {
  FinalState out;
  const rsvc::DrainResult result = engine.drain();
  out.digest = engine.state_digest();
  out.trace = rsvc::render_decision_trace(result.schedule);
  out.metrics = result.metrics;
  return out;
}

/// `snapshot` with the first numeric value of `"key"` replaced by `value`.
std::string with_field(std::string snapshot, const std::string& key, const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t start = snapshot.find(needle);
  EXPECT_NE(start, std::string::npos) << key;
  if (start == std::string::npos) return snapshot;
  const std::size_t from = start + needle.size();
  const std::size_t to = snapshot.find_first_of(",}", from);
  return snapshot.replace(from, to - from, value);
}

/// Restoring `snapshot` must fail with a SnapshotError containing `message`.
void expect_refused(const std::string& snapshot, const std::string& message) {
  try {
    rsvc::restore_snapshot_text(snapshot);
    ADD_FAILURE() << "restored: " << message;
  } catch (const rsvc::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
}

void expect_same_metrics(const rm::MetricSet& a, const rm::MetricSet& b) {
  for (const rm::Metric m : rm::all_metrics()) {
    EXPECT_EQ(a.get(m), b.get(m)) << rm::to_string(m);
  }
  EXPECT_EQ(a.energy_kwh, b.energy_kwh);
}

}  // namespace

TEST(ServiceCheckpointGolden, EveryPrefixRestoresBitIdentically) {
  // Reference: the full session, uninterrupted, with per-prefix digests.
  rsvc::ServiceEngine reference(session_config());
  const std::vector<rsvc::Request> ops = drive_reference(reference);
  ASSERT_GE(ops.size(), 8u);

  std::vector<std::uint64_t> digest_at(ops.size() + 1);
  {
    rsvc::ServiceEngine walker(session_config());
    digest_at[0] = walker.state_digest();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      walker.apply(ops[i]);
      digest_at[i + 1] = walker.state_digest();
    }
  }
  EXPECT_EQ(digest_at[ops.size()], reference.state_digest());
  const FinalState expected = finish(reference);

  for (std::size_t k = 0; k <= ops.size(); ++k) {
    // Run k ops, checkpoint, restore from the snapshot text.
    rsvc::ServiceEngine interrupted(session_config());
    for (std::size_t i = 0; i < k; ++i) interrupted.apply(ops[i]);
    const std::string snapshot = rsvc::snapshot_to_json(interrupted);
    std::unique_ptr<rsvc::ServiceEngine> restored = rsvc::restore_snapshot_text(snapshot);

    EXPECT_EQ(restored->state_digest(), digest_at[k]) << "prefix " << k;
    EXPECT_EQ(restored->ops().size(), k);

    // The resumed session must see the identical remaining event sequence:
    // replay the rest of the script and compare the final state bit-for-bit.
    for (std::size_t i = k; i < ops.size(); ++i) restored->apply(ops[i]);
    const FinalState resumed = finish(*restored);
    EXPECT_EQ(resumed.digest, expected.digest) << "prefix " << k;
    EXPECT_EQ(resumed.trace, expected.trace) << "prefix " << k;
    expect_same_metrics(resumed.metrics, expected.metrics);
  }
}

TEST(ServiceCheckpointGolden, SnapshotSurvivesDiskRoundTrip) {
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);

  const std::string path = testing::TempDir() + "reasched_snapshot_roundtrip.json";
  rsvc::save_snapshot(engine, path);
  std::unique_ptr<rsvc::ServiceEngine> restored = rsvc::load_snapshot(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored->state_digest(), engine.state_digest());
  // And the serialized form is stable: snapshotting the restored session
  // reproduces the original snapshot text byte-for-byte.
  EXPECT_EQ(rsvc::snapshot_to_json(*restored), rsvc::snapshot_to_json(engine));
}

TEST(ServiceCheckpointGolden, TamperedSnapshotsAreRejected) {
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);
  std::string snapshot = rsvc::snapshot_to_json(engine);

  // Flip one digest nibble: restore must refuse rather than resume a
  // session that does not reproduce the checkpointed state.
  const std::size_t pos = snapshot.rfind("\"digest\":\"");
  ASSERT_NE(pos, std::string::npos);
  char& nibble = snapshot[pos + 10];
  nibble = nibble == '0' ? '1' : '0';
  EXPECT_THROW(rsvc::restore_snapshot_text(snapshot), rsvc::SnapshotError);

  // A method key that is no longer settable is refused by name, not ignored.
  std::string removed_key = rsvc::snapshot_to_json(engine);
  const std::size_t easy = removed_key.find("\"method\":\"easy\"");
  ASSERT_NE(easy, std::string::npos);
  expect_refused(removed_key.replace(easy, 15, "\"method\":\"opt:portfolio?xcheck=1\""),
                 "does not accept parameter 'xcheck'");
  // So is a solver budget above the spec bound: restoring it must not start
  // a replan that runs for hours.
  for (const std::string key : {"budget", "ls_evals"}) {
    std::string over_budget = rsvc::snapshot_to_json(engine);
    const std::size_t at = over_budget.find("\"method\":\"easy\"");
    ASSERT_NE(at, std::string::npos);
    over_budget.replace(at, 15, "\"method\":\"opt:portfolio?" + key + "=100000000000\"");
    expect_refused(over_budget, "parameter '" + key + "' must be in [0, 1000000]");
  }

  EXPECT_THROW(rsvc::restore_snapshot_text("{\"version\":99}"), rsvc::SnapshotError);
  EXPECT_THROW(rsvc::restore_snapshot_text("not json"), rsvc::SnapshotError);
}

TEST(ServiceCheckpointGolden, BadIntegerFieldsAreRefusedByName) {
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);
  const std::string snapshot = rsvc::snapshot_to_json(engine);
  ASSERT_NO_THROW(rsvc::restore_snapshot_text(snapshot));

  // Negative counts must not wrap through a cast to std::size_t.
  expect_refused(with_field(snapshot, "batch_jobs", "-1"), "\"batch_jobs\"");
  expect_refused(with_field(snapshot, "max_batches", "-1"), "\"max_batches\"");
  // Out of int range or fractional: refused before any cast.
  expect_refused(with_field(snapshot, "batch_jobs", "1e300"), "\"batch_jobs\"");
  expect_refused(with_field(snapshot, "max_invalid_retries", "1e300"),
                 "\"max_invalid_retries\"");
  expect_refused(with_field(snapshot, "max_invalid_retries", "2.5"),
                 "\"max_invalid_retries\"");
  expect_refused(with_field(snapshot, "total_nodes", "-1e300"), "\"total_nodes\"");
  // The cancel op's id (drive_reference cancels once).
  const std::size_t cancel = snapshot.find("{\"op\":\"cancel\"");
  ASSERT_NE(cancel, std::string::npos);
  expect_refused(snapshot.substr(0, cancel) + with_field(snapshot.substr(cancel), "id", "1e300"),
                 "\"id\"");
}

TEST(ServiceCheckpointGolden, SeedIsReadAsStrictDecimal) {
  rsvc::ServiceConfig config = session_config();
  config.seed = std::numeric_limits<std::uint64_t>::max();
  rsvc::ServiceEngine largest(config);
  drive_reference(largest);
  const std::string snapshot = rsvc::snapshot_to_json(largest);
  const std::unique_ptr<rsvc::ServiceEngine> restored = rsvc::restore_snapshot_text(snapshot);
  EXPECT_EQ(restored->config().seed, config.seed);
  EXPECT_EQ(rsvc::snapshot_to_json(*restored), snapshot);

  // None of these is a plain decimal in [0, 2^64-1], so each is refused by
  // name. A lenient reader (std::stoull) takes the first two as 11, which a
  // seed-11 session would then restore; the third overflows.
  config.seed = 11;
  rsvc::ServiceEngine engine(config);
  drive_reference(engine);
  const std::string eleven = rsvc::snapshot_to_json(engine);
  ASSERT_NO_THROW(rsvc::restore_snapshot_text(eleven));
  for (const char* bad : {"\" 11abc\"", "\"-18446744073709551605\"", "\"18446744073709551616\"",
                          "\"+11\"", "\"\"", "11"}) {
    expect_refused(with_field(eleven, "seed", bad), "\"seed\"");
  }
}

TEST(ServiceCheckpointGolden, EveryObjectTakesOnlyItsOwnKeys) {
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);
  const std::string snapshot = rsvc::snapshot_to_json(engine);

  // An unknown key in the snapshot or any config object is refused by name,
  // not dropped.
  const auto with_key_before = [&](const std::string& next, const std::string& key) {
    std::string edited = snapshot;
    const std::size_t at = edited.find("\"" + next + "\":");
    EXPECT_NE(at, std::string::npos) << next;
    return edited.insert(at, "\"" + key + "\":9,");
  };
  expect_refused(with_key_before("digest", "digets"),
                 "object \"snapshot\" does not accept key \"digets\"");
  expect_refused(with_key_before("method", "max_batch"),
                 "object \"config\" does not accept key \"max_batch\"");
  expect_refused(with_key_before("max_invalid_retries", "max_invalid_retriez"),
                 "object \"engine\" does not accept key \"max_invalid_retriez\"");
  expect_refused(with_key_before("total_nodes", "nodes"),
                 "object \"cluster\" does not accept key \"nodes\"");
  expect_refused(with_key_before("batch_jobs", "batch_job"),
                 "object \"stream\" does not accept key \"batch_job\"");

  // A wrong-typed bool or string field names its key.
  expect_refused(with_field(snapshot, "feedback_enabled", "1"), "\"feedback_enabled\"");
  expect_refused(with_field(snapshot, "enforce_walltime", "\"true\""), "\"enforce_walltime\"");
  expect_refused(with_field(snapshot, "method", "7"), "\"method\"");
  expect_refused(with_field(snapshot, "scenario", "null"), "\"scenario\"");
}

TEST(ServiceCheckpointGolden, UnknownOpIsRefused) {
  rsvc::ServiceConfig config;
  config.method = reasched::harness::MethodSpec::parse("fcfs");
  const std::string empty = rsvc::snapshot_to_json(rsvc::ServiceEngine(config));
  const std::size_t ops = empty.find("\"ops\":[]");
  ASSERT_NE(ops, std::string::npos);
  std::string snapshot = empty;
  snapshot.replace(ops, 8, "\"ops\":[{\"op\":\"replay\",\"jobs\":[]}]");
  expect_refused(snapshot, "snapshot: replay of op 0 failed (request: unknown op \"replay\"");
}

TEST(ServiceCheckpointGolden, OpLogIsReadByTheRequestCodec) {
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);
  const std::string snapshot = rsvc::snapshot_to_json(engine);

  // Only submit/cancel/advance/drain change state; any other request in the
  // op log is refused by name rather than replayed.
  std::string stats = snapshot;
  const std::size_t ops = stats.find("\"ops\":[");
  ASSERT_NE(ops, std::string::npos);
  stats.insert(ops + 7, "{\"op\":\"stats\"},");
  expect_refused(stats, "replay of op 0 failed (ServiceEngine: op \"stats\" is not a logged op");

  // The job codec's strict keys hold in a snapshot too: a misspelt
  // dependency list is not silently dropped.
  std::string deps = snapshot;
  const std::size_t job = deps.find("\"dependencies\":[]");
  ASSERT_NE(job, std::string::npos);
  deps.insert(job, "\"deps\":[1],");
  expect_refused(deps, "does not accept key \"deps\"");
}

TEST(ServiceCheckpointGolden, DrainedSessionCheckpointsAndRestores) {
  // A finished session is still checkpointable (for archival): restore
  // replays through the drain op and reproduces the terminal state.
  rsvc::ServiceEngine engine(session_config());
  drive_reference(engine);
  const FinalState expected = finish(engine);

  const std::string snapshot = rsvc::snapshot_to_json(engine);
  std::unique_ptr<rsvc::ServiceEngine> restored = rsvc::restore_snapshot_text(snapshot);
  EXPECT_TRUE(restored->drained());
  EXPECT_EQ(restored->state_digest(), expected.digest);
  EXPECT_EQ(rsvc::render_decision_trace(restored->schedule_view()), expected.trace);
}
