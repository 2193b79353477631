#include "service/protocol.hpp"

#include <limits>
#include <optional>

#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

double require_number(const util::JsonValue& v, const char* key) {
  if (!v.contains(key) || !v.at(key).is_number()) {
    throw ProtocolError(util::format("request: missing or non-numeric field \"%s\"", key));
  }
  return v.at(key).as_number();
}

/// The one reader of every integer field (ids, nodes, user, group,
/// dependency entries): integral and within int's range, or a ProtocolError
/// naming `field`.
int exact_int(const util::JsonValue& v, const std::string& field) {
  const std::optional<int> n = v.exact_int();
  if (!n) {
    throw ProtocolError(util::format("request: field \"%s\" must be an integer in [%d, %d]",
                                     field.c_str(), std::numeric_limits<int>::min(),
                                     std::numeric_limits<int>::max()));
  }
  return *n;
}

int int_from(const util::JsonValue& v, const char* key) {
  require_number(v, key);
  return exact_int(v.at(key), key);
}

}  // namespace

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
  sim::Job job;
  job.duration = require_number(v, "duration");
  job.walltime = v.number_or("walltime", job.duration);
  job.nodes = int_from(v, "nodes");
  job.memory_gb = v.number_or("memory_gb", 1.0);
  job.submit_time = v.number_or("submit_time", 0.0);
  if (v.contains("id")) job.id = int_from(v, "id");
  if (v.contains("user")) job.user = int_from(v, "user");
  if (v.contains("group")) job.group = int_from(v, "group");
  if (v.contains("dependencies")) {
    const util::JsonValue& deps = v.at("dependencies");
    if (!deps.is_array()) throw ProtocolError("request: \"dependencies\" must be an array");
    for (std::size_t i = 0; i < deps.size(); ++i) {
      if (!deps.at(i).is_number()) {
        throw ProtocolError("request: \"dependencies\" entries must be job ids");
      }
      job.dependencies.push_back(exact_int(deps.at(i), util::format("dependencies[%zu]", i)));
    }
  }
  return job;
}

Request parse_request(const std::string& line) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const std::exception& e) {
    throw ProtocolError(util::format("request: invalid JSON (%s)", e.what()));
  }
  if (!doc.is_object()) throw ProtocolError("request: expected a JSON object");
  if (!doc.contains("op") || !doc.at("op").is_string()) {
    throw ProtocolError("request: missing string field \"op\"");
  }
  const std::string& op = doc.at("op").as_string();
  Request req;
  if (op == "submit") {
    req.op = Request::Op::kSubmit;
    if (!doc.contains("job")) throw ProtocolError("request: submit needs a \"job\" object");
    req.job = job_from_json(doc.at("job"));
  } else if (op == "query") {
    req.op = Request::Op::kQuery;
    if (doc.contains("id")) {
      req.has_id = true;
      req.id = int_from(doc, "id");
    }
  } else if (op == "cancel") {
    req.op = Request::Op::kCancel;
    req.id = int_from(doc, "id");
  } else if (op == "advance") {
    req.op = Request::Op::kAdvance;
    req.to = require_number(doc, "to");
  } else if (op == "drain") {
    req.op = Request::Op::kDrain;
  } else if (op == "checkpoint") {
    req.op = Request::Op::kCheckpoint;
    if (!doc.contains("path") || !doc.at("path").is_string()) {
      throw ProtocolError("request: checkpoint needs a string \"path\"");
    }
    req.path = doc.at("path").as_string();
  } else if (op == "stats") {
    req.op = Request::Op::kStats;
  } else if (op == "shutdown") {
    req.op = Request::Op::kShutdown;
  } else {
    throw ProtocolError(util::format(
        "request: unknown op \"%s\" (submit|query|cancel|advance|drain|checkpoint|stats|shutdown)",
        op.c_str()));
  }
  return req;
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
  w.kv("digest", util::format("%016llx", static_cast<unsigned long long>(digest)));
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
