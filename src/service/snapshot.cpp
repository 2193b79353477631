#include "service/snapshot.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "service/protocol.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"
#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

constexpr int kSnapshotVersion = 1;

/// Every key snapshot_to_json writes, per object; restore reads no other.
constexpr std::array<std::string_view, 4> kSnapshotKeys = {"version", "config", "ops", "digest"};
constexpr std::array<std::string_view, 4> kConfigKeys = {"method", "seed", "engine", "stream"};
constexpr std::array<std::string_view, 5> kEngineKeys = {
    "max_invalid_retries", "feedback_enabled", "record_traces", "enforce_walltime", "cluster"};
constexpr std::array<std::string_view, 4> kClusterKeys = {
    "total_nodes", "total_memory_gb", "watts_per_busy_node", "watts_per_idle_node"};
constexpr std::array<std::string_view, 4> kStreamKeys = {"scenario", "batch_jobs", "max_batches",
                                                         "rate_scale"};

/// `v[key]` as an object whose keys are all in `accepted`.
const util::JsonValue& object_field(const util::JsonValue& v, const char* key,
                                    std::span<const std::string_view> accepted) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_object()) {
    throw ProtocolError(util::format("missing or non-object field \"%s\"", key));
  }
  check_keys(*field, accepted, "object", key);
  return *field;
}

/// The seed is written as a decimal string (a uint64 does not survive a
/// JSON double); only digits denoting a value in [0, 2^64-1] read back.
std::uint64_t seed_field(const util::JsonValue& v) {
  const std::string& text = string_field(v, "seed");
  std::uint64_t seed = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), seed);
  if (error != std::errc{} || end != text.data() + text.size()) {
    throw ProtocolError(
        "field \"seed\" must be a decimal integer in [0, 18446744073709551615]");
  }
  return seed;
}

}  // namespace

std::string snapshot_to_json(const ServiceEngine& engine) {
  const ServiceConfig& config = engine.config();
  util::JsonWriter w;
  w.begin_object();
  w.kv("version", kSnapshotVersion);

  w.key("config").begin_object();
  w.kv("method", config.method.to_string());
  w.kv("seed", std::to_string(config.seed));
  w.key("engine").begin_object();
  w.kv("max_invalid_retries", config.engine.max_invalid_retries);
  w.kv("feedback_enabled", config.engine.feedback_enabled);
  w.kv("record_traces", config.engine.record_traces);
  w.kv("enforce_walltime", config.engine.enforce_walltime);
  w.key("cluster").begin_object();
  w.kv("total_nodes", config.engine.cluster.total_nodes);
  w.kv_exact("total_memory_gb", config.engine.cluster.total_memory_gb);
  w.kv_exact("watts_per_busy_node", config.engine.cluster.watts_per_busy_node);
  w.kv_exact("watts_per_idle_node", config.engine.cluster.watts_per_idle_node);
  w.end_object();
  w.end_object();
  w.key("stream").begin_object();
  w.kv("scenario", config.stream.scenario.to_string());
  w.kv("batch_jobs", config.stream.batch_jobs);
  w.kv("max_batches", config.stream.max_batches);
  w.kv_exact("rate_scale", config.stream.rate_scale);
  w.end_object();
  w.end_object();

  w.key("ops").begin_array();
  for (const Request& op : engine.ops()) request_to_json(w, op);
  w.end_array();

  w.kv("digest", digest_hex(engine.state_digest()));
  w.end_object();
  return w.str();
}

void save_snapshot(const ServiceEngine& engine, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw SnapshotError("snapshot: cannot open " + path + " for writing");
  f << snapshot_to_json(engine) << '\n';
  if (!f) throw SnapshotError("snapshot: write to " + path + " failed");
}

std::unique_ptr<ServiceEngine> restore_snapshot_text(const std::string& json) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const std::exception& e) {
    throw SnapshotError(util::format("snapshot: invalid JSON (%s)", e.what()));
  }
  if (!doc.is_object()) throw SnapshotError("snapshot: expected a JSON object");
  try {
    check_keys(doc, kSnapshotKeys, "object", "snapshot");
  } catch (const ProtocolError& e) {
    throw SnapshotError(util::format("snapshot: %s", e.what()));
  }
  if (!doc.contains("version") || doc.at("version").exact_int() != kSnapshotVersion) {
    throw SnapshotError(
        util::format("snapshot: unsupported version (this build reads %d)", kSnapshotVersion));
  }
  std::unique_ptr<ServiceEngine> engine;
  try {
    const util::JsonValue& cfg = object_field(doc, "config", kConfigKeys);
    ServiceConfig config;
    config.method = harness::MethodSpec::parse(string_field(cfg, "method"));
    config.seed = seed_field(cfg);
    const util::JsonValue& eng = object_field(cfg, "engine", kEngineKeys);
    config.engine.max_invalid_retries = int_field(eng, "max_invalid_retries");
    config.engine.feedback_enabled = bool_field(eng, "feedback_enabled");
    config.engine.record_traces = bool_field(eng, "record_traces");
    config.engine.enforce_walltime = bool_field(eng, "enforce_walltime");
    const util::JsonValue& cluster = object_field(eng, "cluster", kClusterKeys);
    config.engine.cluster.total_nodes = int_field(cluster, "total_nodes");
    config.engine.cluster.total_memory_gb = number_field(cluster, "total_memory_gb");
    config.engine.cluster.watts_per_busy_node = number_field(cluster, "watts_per_busy_node");
    config.engine.cluster.watts_per_idle_node = number_field(cluster, "watts_per_idle_node");
    const util::JsonValue& stream = object_field(cfg, "stream", kStreamKeys);
    const int batch_jobs = int_field(stream, "batch_jobs", 0);
    if (batch_jobs > 0) {
      config.stream = workload::make_stream_spec(
          string_field(stream, "scenario"), static_cast<std::size_t>(batch_jobs),
          static_cast<std::size_t>(int_field(stream, "max_batches", 0)),
          number_field(stream, "rate_scale"));
    }
    // Building the engine builds the scheduler, which checks the method spec.
    engine = std::make_unique<ServiceEngine>(config);
  } catch (const std::exception& e) {
    throw SnapshotError(util::format("snapshot: bad config (%s)", e.what()));
  }

  if (!doc.contains("ops") || !doc.at("ops").is_array()) {
    throw SnapshotError("snapshot: missing \"ops\" array");
  }
  const util::JsonValue::Array& ops = doc.at("ops").as_array();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    try {
      engine->apply(parse_request(ops[i]));
    } catch (const std::exception& e) {
      throw SnapshotError(
          util::format("snapshot: replay of op %zu failed (%s)", i, e.what()));
    }
  }

  if (!doc.contains("digest") || !doc.at("digest").is_string()) {
    throw SnapshotError("snapshot: missing \"digest\"");
  }
  const std::string recomputed = digest_hex(engine->state_digest());
  const std::string& stored = doc.at("digest").as_string();
  if (recomputed != stored) {
    throw SnapshotError(util::format(
        "snapshot: digest mismatch after replay (stored %s, recomputed %s) - the restoring "
        "build does not reproduce the checkpointed session bit-for-bit",
        stored.c_str(), recomputed.c_str()));
  }
  return engine;
}

std::unique_ptr<ServiceEngine> load_snapshot(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw SnapshotError("snapshot: cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return restore_snapshot_text(buffer.str());
}

}  // namespace reasched::service
