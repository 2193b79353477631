#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "service/service_engine.hpp"
#include "sim/job.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"

namespace reasched::service {

/// The RJMS protocol boundary: newline-delimited JSON over stdin/stdout.
/// One request line in, one response line out, in order. Requests:
///
///   {"op":"submit","job":{"duration":60,"nodes":4,...}}   -> {"ok":true,"op":"submit","id":1}
///   {"op":"query"}                                        -> session status
///   {"op":"query","id":3}                                 -> one job's state
///   {"op":"cancel","id":3}                                -> cancelled id cascade
///   {"op":"advance","to":3600}                            -> process events up to t
///   {"op":"drain"}                                        -> run to completion + metrics
///   {"op":"checkpoint","path":"snap.json"}                -> write a snapshot
///   {"op":"stats"}                                        -> live session counters
///   {"op":"shutdown"}                                     -> close the session
///
/// Every error - parse failure, unknown op, rejected operation - is a
/// `{"ok":false,"error":"..."}` line; the session keeps serving. Doubles in
/// responses that feed state (times, digests) are round-trip exact.

/// Malformed request line (bad JSON, missing fields, unknown op). The
/// message is safe to echo back to the client verbatim.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The op codec of request lines and snapshot op logs alike. Each op takes
/// only its own keys (submit: job, query/cancel: id, advance: to,
/// checkpoint: path); an unknown op or key, or a missing or ill-typed field,
/// throws a ProtocolError naming it.
Request parse_request(const util::JsonValue& doc);
Request parse_request(const std::string& line);
void request_to_json(util::JsonWriter& w, const Request& request);

/// Job JSON codec. Emits every field with round-trip-exact doubles; parsing
/// reads only those keys, fills defaults (id 0 = assign, walltime =
/// duration) and throws ProtocolError on unknown keys and on missing
/// (duration, nodes) or ill-typed fields.
void job_to_json(util::JsonWriter& w, const sim::Job& job);
sim::Job job_from_json(const util::JsonValue& v);

/// Refuse the first key of object `v` outside `accepted` with a
/// ProtocolError naming it (as a key of `kind "name"`) and listing the
/// accepted ones. The request ops, the `job` object and the snapshot config
/// each declare one such list.
void check_keys(const util::JsonValue& v, std::span<const std::string_view> accepted,
                const char* kind, const char* name);

/// `v[key]` as a number, as an integer in [min, INT_MAX] (checked before any
/// cast), as a bool or as a string; a ProtocolError naming `key` otherwise.
double number_field(const util::JsonValue& v, const char* key);
int int_field(const util::JsonValue& v, const char* key,
              int min = std::numeric_limits<int>::min());
bool bool_field(const util::JsonValue& v, const char* key);
const std::string& string_field(const util::JsonValue& v, const char* key);

/// A state digest as 16 hex digits.
std::string digest_hex(std::uint64_t digest);

/// Response renderers - each returns one complete JSON line (no newline).
std::string render_submit(sim::JobId id);
std::string render_cancel(const std::vector<sim::JobId>& cancelled);
std::string render_status(const ServiceStatus& status);
std::string render_job_state(sim::JobId id, sim::JobState state);
std::string render_advance(const ServiceStatus& status);
std::string render_drain(const DrainResult& result);
std::string render_checkpoint(const std::string& path, std::uint64_t digest);
/// Live session snapshot as one JSON line, read from `engine` when called:
/// the engine counters (steps, decisions, rejected actions, ...), the
/// session gauges plus run-log and scheduler counters (each block
/// name-sorted) and span-ring occupancy. Exact whether or not span
/// recording is on. Purely observational - nothing here feeds the digest,
/// the op log or a decision.
std::string render_stats(const ServiceEngine& engine, bool obs_enabled,
                         const obs::TraceStats& spans);
std::string render_shutdown();
std::string render_error(const std::string& message);

/// The decision trace as JSON lines with exact times - the artifact CI
/// diffs bit-for-bit between an uninterrupted run and a
/// checkpoint/restore/resume run.
std::string render_decision_trace(const sim::ScheduleResult& schedule);

}  // namespace reasched::service
