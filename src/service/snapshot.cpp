#include "service/snapshot.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "service/protocol.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"
#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

constexpr int kSnapshotVersion = 1;

const char* op_name(ServiceOp::Kind kind) {
  switch (kind) {
    case ServiceOp::Kind::kSubmit: return "submit";
    case ServiceOp::Kind::kCancel: return "cancel";
    case ServiceOp::Kind::kAdvance: return "advance";
    case ServiceOp::Kind::kDrain: return "drain";
  }
  return "?";  // unreachable
}

std::string digest_hex(std::uint64_t digest) {
  return util::format("%016llx", static_cast<unsigned long long>(digest));
}

double exact_number(const util::JsonValue& v, const char* key) {
  if (!v.contains(key) || !v.at(key).is_number()) {
    throw SnapshotError(util::format("snapshot: missing numeric field \"%s\"", key));
  }
  return v.at(key).as_number();
}

/// Every integer field: integral, at least `min` and within int's range.
/// The range check comes before any cast - casting an out-of-range double
/// is undefined behaviour.
int exact_int(const util::JsonValue& v, const char* key,
              int min = std::numeric_limits<int>::min()) {
  const std::optional<int> n = v.contains(key) ? v.at(key).exact_int() : std::nullopt;
  if (!n || *n < min) {
    throw SnapshotError(util::format("snapshot: field \"%s\" must be an integer in [%d, %d]",
                                     key, min, std::numeric_limits<int>::max()));
  }
  return *n;
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
  for (const ServiceOp& op : engine.ops()) {
    w.begin_object();
    w.kv("op", op_name(op.kind));
    switch (op.kind) {
      case ServiceOp::Kind::kSubmit:
        w.key("job");
        job_to_json(w, op.job);
        break;
      case ServiceOp::Kind::kCancel: w.kv("id", op.id); break;
      case ServiceOp::Kind::kAdvance: w.kv_exact("to", op.to); break;
      case ServiceOp::Kind::kDrain: break;
    }
    w.end_object();
  }
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
  const double version = exact_number(doc, "version");
  if (version != kSnapshotVersion) {
    throw SnapshotError(util::format("snapshot: unsupported version %g", version));
  }
  if (!doc.contains("config") || !doc.at("config").is_object()) {
    throw SnapshotError("snapshot: missing \"config\" object");
  }
  const util::JsonValue& cfg = doc.at("config");

  ServiceConfig config;
  try {
    config.method = harness::MethodSpec::parse(cfg.at("method").as_string());
    config.seed = std::stoull(cfg.at("seed").as_string());
    const util::JsonValue& eng = cfg.at("engine");
    config.engine.max_invalid_retries = exact_int(eng, "max_invalid_retries");
    config.engine.feedback_enabled = eng.at("feedback_enabled").as_bool();
    config.engine.record_traces = eng.at("record_traces").as_bool();
    config.engine.enforce_walltime = eng.at("enforce_walltime").as_bool();
    const util::JsonValue& cluster = eng.at("cluster");
    config.engine.cluster.total_nodes = exact_int(cluster, "total_nodes");
    config.engine.cluster.total_memory_gb = exact_number(cluster, "total_memory_gb");
    config.engine.cluster.watts_per_busy_node = exact_number(cluster, "watts_per_busy_node");
    config.engine.cluster.watts_per_idle_node = exact_number(cluster, "watts_per_idle_node");
    const util::JsonValue& stream = cfg.at("stream");
    const int batch_jobs = exact_int(stream, "batch_jobs", 0);
    if (batch_jobs > 0) {
      config.stream = workload::make_stream_spec(
          stream.at("scenario").as_string(), static_cast<std::size_t>(batch_jobs),
          static_cast<std::size_t>(exact_int(stream, "max_batches", 0)),
          exact_number(stream, "rate_scale"));
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(util::format("snapshot: bad config (%s)", e.what()));
  }

  auto engine = std::make_unique<ServiceEngine>(config);

  if (!doc.contains("ops") || !doc.at("ops").is_array()) {
    throw SnapshotError("snapshot: missing \"ops\" array");
  }
  const util::JsonValue::Array& ops = doc.at("ops").as_array();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::JsonValue& entry = ops[i];
    ServiceOp op;
    try {
      const std::string& kind = entry.at("op").as_string();
      if (kind == "submit") {
        op.kind = ServiceOp::Kind::kSubmit;
        op.job = job_from_json(entry.at("job"));
      } else if (kind == "cancel") {
        op.kind = ServiceOp::Kind::kCancel;
        op.id = exact_int(entry, "id");
      } else if (kind == "advance") {
        op.kind = ServiceOp::Kind::kAdvance;
        op.to = exact_number(entry, "to");
      } else if (kind == "drain") {
        op.kind = ServiceOp::Kind::kDrain;
      } else {
        throw SnapshotError(util::format("snapshot: unknown op \"%s\"", kind.c_str()));
      }
      engine->apply(op);
    } catch (const SnapshotError&) {
      throw;
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
