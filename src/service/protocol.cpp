#include "service/protocol.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string_view>

#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

/// Each op's wire name and the one key it reads besides "op" (empty when
/// none), indexed by Request::Op.
struct OpSchema {
  const char* name;
  std::string_view field;
};
constexpr std::array<OpSchema, 8> kOps = {{{"submit", "job"}, {"query", "id"}, {"cancel", "id"},
                                           {"advance", "to"}, {"drain", ""}, {"checkpoint", "path"},
                                           {"stats", ""}, {"shutdown", ""}}};

/// Every key job_to_json writes; job_from_json reads no other.
constexpr std::array<std::string_view, 9> kJobKeys = {
    "id", "user", "group", "submit_time", "duration", "walltime", "nodes", "memory_gb",
    "dependencies"};

/// `v[key]` as a number; nullptr when it is absent and `optional`, a
/// ProtocolError naming `key` when it is absent otherwise or not a number.
const util::JsonValue* number_at(const util::JsonValue& v, const char* key, bool optional) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr ? !optional : !field->is_number()) {
    throw ProtocolError(util::format("missing or non-numeric field \"%s\"", key));
  }
  return field;
}

/// The one reader of every integer value: ids, nodes, user, group,
/// dependency entries and snapshot config counts.
int exact_int(const util::JsonValue& v, const std::string& field,
              int min = std::numeric_limits<int>::min()) {
  const std::optional<int> n = v.exact_int();
  if (!n || *n < min) {
    throw ProtocolError(util::format("field \"%s\" must be an integer in [%d, %d]",
                                     field.c_str(), min, std::numeric_limits<int>::max()));
  }
  return *n;
}

double number_or(const util::JsonValue& v, const char* key, double fallback) {
  const util::JsonValue* field = number_at(v, key, true);
  return field != nullptr ? field->as_number() : fallback;
}

int int_or(const util::JsonValue& v, const char* key, int fallback) {
  const util::JsonValue* field = v.find(key);
  return field != nullptr ? exact_int(*field, key) : fallback;
}

}  // namespace

const char* to_string(Request::Op op) { return kOps.at(static_cast<std::size_t>(op)).name; }

void check_keys(const util::JsonValue& v, std::span<const std::string_view> accepted,
                const char* kind, const char* name) {
  for (const auto& entry : v.as_object()) {
    if (std::find(accepted.begin(), accepted.end(), entry.first) != accepted.end()) continue;
    std::string listed;
    for (const std::string_view key : accepted) (listed += listed.empty() ? "" : ", ") += key;
    throw ProtocolError(util::format("%s \"%s\" does not accept key \"%s\"; accepted keys: %s",
                                     kind, name, entry.first.c_str(), listed.c_str()));
  }
}

double number_field(const util::JsonValue& v, const char* key) {
  return number_at(v, key, false)->as_number();
}

int int_field(const util::JsonValue& v, const char* key, int min) {
  return exact_int(*number_at(v, key, false), key, min);
}

bool bool_field(const util::JsonValue& v, const char* key) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_bool()) {
    throw ProtocolError(util::format("missing or non-boolean field \"%s\"", key));
  }
  return field->as_bool();
}

const std::string& string_field(const util::JsonValue& v, const char* key) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_string()) {
    throw ProtocolError(util::format("missing or non-string field \"%s\"", key));
  }
  return field->as_string();
}

std::string digest_hex(std::uint64_t digest) {
  return util::format("%016llx", static_cast<unsigned long long>(digest));
}

void job_to_json(util::JsonWriter& w, const sim::Job& job) {
  w.begin_object();
  w.kv("id", job.id);
  w.kv("user", job.user);
  w.kv("group", job.group);
  w.kv_exact("submit_time", job.submit_time);
  w.kv_exact("duration", job.duration);
  w.kv_exact("walltime", job.walltime);
  w.kv("nodes", job.nodes);
  w.kv_exact("memory_gb", job.memory_gb);
  w.key("dependencies").begin_array();
  for (const sim::JobId dep : job.dependencies) w.value(dep);
  w.end_array();
  w.end_object();
}

sim::Job job_from_json(const util::JsonValue& v) {
  if (!v.is_object()) throw ProtocolError("request: \"job\" must be an object");
  check_keys(v, kJobKeys, "request: object", "job");
  sim::Job job;
  job.duration = number_field(v, "duration");
  job.walltime = number_or(v, "walltime", job.duration);
  job.nodes = int_field(v, "nodes");
  job.memory_gb = number_or(v, "memory_gb", 1.0);
  job.submit_time = number_or(v, "submit_time", 0.0);
  job.id = int_or(v, "id", 0);
  job.user = int_or(v, "user", 0);
  job.group = int_or(v, "group", 0);
  if (const util::JsonValue* deps = v.find("dependencies")) {
    if (!deps->is_array()) throw ProtocolError("request: \"dependencies\" must be an array");
    for (std::size_t i = 0; i < deps->size(); ++i) {
      job.dependencies.push_back(exact_int(deps->at(i), util::format("dependencies[%zu]", i)));
    }
  }
  return job;
}

Request parse_request(const util::JsonValue& doc) {
  if (!doc.is_object()) throw ProtocolError("request: expected a JSON object");
  const util::JsonValue* name = doc.find("op");
  if (name == nullptr || !name->is_string()) {
    throw ProtocolError("request: missing string field \"op\"");
  }
  const auto schema = std::find_if(kOps.begin(), kOps.end(), [&](const OpSchema& s) {
    return name->as_string() == s.name;
  });
  if (schema == kOps.end()) {
    throw ProtocolError(util::format(
        "request: unknown op \"%s\" (submit|query|cancel|advance|drain|checkpoint|stats|shutdown)",
        name->as_string().c_str()));
  }
  const std::string_view keys[] = {"op", schema->field};
  check_keys(doc, std::span(keys).first(schema->field.empty() ? 1 : 2), "request: op",
             schema->name);
  Request req;
  req.op = static_cast<Request::Op>(schema - kOps.begin());
  switch (req.op) {
    case Request::Op::kSubmit:
      if (!doc.contains("job")) throw ProtocolError("request: submit needs a \"job\" object");
      req.job = job_from_json(doc.at("job"));
      break;
    case Request::Op::kQuery:
      req.has_id = doc.contains("id");
      req.id = int_or(doc, "id", 0);
      break;
    case Request::Op::kCancel: req.id = int_field(doc, "id"); break;
    case Request::Op::kAdvance: req.to = number_field(doc, "to"); break;
    case Request::Op::kCheckpoint: req.path = string_field(doc, "path"); break;
    default: break;
  }
  return req;
}

Request parse_request(const std::string& line) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const std::exception& e) {
    throw ProtocolError(util::format("request: invalid JSON (%s)", e.what()));
  }
  return parse_request(doc);
}

void request_to_json(util::JsonWriter& w, const Request& request) {
  w.begin_object().kv("op", to_string(request.op));
  switch (request.op) {
    case Request::Op::kSubmit: job_to_json(w.key("job"), request.job); break;
    case Request::Op::kQuery:
      if (request.has_id) w.kv("id", request.id);
      break;
    case Request::Op::kCancel: w.kv("id", request.id); break;
    case Request::Op::kAdvance: w.kv_exact("to", request.to); break;
    case Request::Op::kCheckpoint: w.kv("path", request.path); break;
    default: break;
  }
  w.end_object();
}

namespace {

void status_fields(util::JsonWriter& w, const ServiceStatus& s) {
  w.kv_exact("clock", s.clock);
  w.kv_exact("now", s.engine_now);
  w.kv("steps", static_cast<long long>(s.steps));
  w.kv("admitted", s.n_admitted);
  w.kv("buffered", s.n_buffered);
  w.kv("waiting", s.n_waiting);
  w.kv("running", s.n_running);
  w.kv("completed", s.n_completed);
  w.kv("cancelled", s.n_cancelled);
  w.kv("decisions", s.n_decisions);
  w.kv("stream_emitted", s.stream_emitted);
  w.kv("drained", s.drained);
}

}  // namespace

std::string render_submit(sim::JobId id) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "submit").kv("id", id).end_object();
  return w.str();
}

std::string render_cancel(const std::vector<sim::JobId>& cancelled) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "cancel");
  w.key("cancelled").begin_array();
  for (const sim::JobId id : cancelled) w.value(id);
  w.end_array().end_object();
  return w.str();
}

std::string render_status(const ServiceStatus& s) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "query");
  status_fields(w, s);
  w.end_object();
  return w.str();
}

std::string render_job_state(sim::JobId id, sim::JobState state) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "query").kv("id", id);
  w.kv("state", sim::to_string(state));
  w.end_object();
  return w.str();
}

std::string render_advance(const ServiceStatus& s) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "advance");
  status_fields(w, s);
  w.end_object();
  return w.str();
}

std::string render_drain(const DrainResult& result) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "drain");
  w.kv("completed", result.schedule.completed.size());
  w.kv_exact("final_time", result.schedule.final_time);
  w.kv("decisions", result.schedule.n_decisions);
  w.key("metrics").begin_object();
  for (const metrics::Metric m : metrics::all_metrics()) {
    w.kv_exact(metrics::to_string(m), result.metrics.get(m));
  }
  w.end_object().end_object();
  return w.str();
}

std::string render_checkpoint(const std::string& path, std::uint64_t digest) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "checkpoint").kv("path", path);
  w.kv("digest", digest_hex(digest));
  w.end_object();
  return w.str();
}

std::string render_stats(bool obs_enabled, const obs::RegistrySnapshot& registry,
                         const obs::TraceStats& spans) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "stats");
  w.kv("obs_enabled", obs_enabled);
  w.key("counters").begin_object();
  for (const auto& [name, value] : registry.counters) w.kv(name, static_cast<long long>(value));
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : registry.gauges) w.kv_exact(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : registry.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::uint64_t c : h.counts) w.value(static_cast<long long>(c));
    w.end_array();
    w.kv("count", static_cast<long long>(h.count));
    w.kv_exact("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_object();
  w.kv("recorded", spans.recorded);
  w.kv("dropped", spans.dropped);
  w.kv("capacity", spans.capacity);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string render_shutdown() {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "shutdown").end_object();
  return w.str();
}

std::string render_error(const std::string& message) {
  util::JsonWriter w;
  w.begin_object().kv("ok", false).kv("error", message).end_object();
  return w.str();
}

std::string render_decision_trace(const sim::ScheduleResult& schedule) {
  std::string out;
  for (const sim::DecisionRecord& rec : schedule.decisions) {
    util::JsonWriter w;
    w.begin_object();
    w.kv_exact("t", rec.time);
    w.kv("action", rec.action.to_string());
    w.kv("accepted", rec.accepted);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace reasched::service
