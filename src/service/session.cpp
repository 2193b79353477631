#include "service/session.hpp"

#include <istream>
#include <ostream>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "service/snapshot.hpp"

namespace reasched::service {

std::string handle_request(ServiceEngine& engine, const Request& request, bool& shutdown) {
  try {
    switch (request.op) {
      case Request::Op::kSubmit: return render_submit(engine.submit(request.job));
      case Request::Op::kQuery:
        if (request.has_id) {
          return render_job_state(request.id, engine.job_state(request.id));
        }
        return render_status(engine.status());
      case Request::Op::kCancel: return render_cancel(engine.cancel(request.id));
      case Request::Op::kAdvance:
        engine.advance_to(request.to);
        return render_advance(engine.status());
      case Request::Op::kDrain: return render_drain(engine.drain());
      case Request::Op::kCheckpoint:
        save_snapshot(engine, request.path);
        return render_checkpoint(request.path, engine.state_digest());
      case Request::Op::kStats:
        // Live snapshot: refresh the session gauges, then render whatever
        // the registry holds. Works with telemetry disabled too (the
        // request itself is the opt-in); observe-only either way.
        engine.publish_obs();
        return render_stats(obs::enabled(), obs::MetricRegistry::global().snapshot(),
                            obs::TraceRecorder::global().stats());
      case Request::Op::kShutdown:
        shutdown = true;
        return render_shutdown();
    }
    return render_error("unhandled op");  // unreachable
  } catch (const std::exception& e) {
    return render_error(e.what());
  }
}

LoopStats run_service_loop(ServiceEngine& engine, std::istream& in, std::ostream& out) {
  LoopStats stats;
  std::string line;
  while (!stats.shutdown && std::getline(in, line)) {
    if (line.empty()) continue;
    ++stats.n_requests;
    std::string response;
    try {
      const Request request = parse_request(line);
      response = handle_request(engine, request, stats.shutdown);
    } catch (const ProtocolError& e) {
      response = render_error(e.what());
    }
    if (response.rfind("{\"ok\":false", 0) == 0) ++stats.n_errors;
    // Flush per line: clients block on our responses (and the checkpoint ack
    // is the durability signal CI kills the process on), so responses must
    // not sit in a full-buffered redirect.
    out << response << std::endl;
  }
  return stats;
}

}  // namespace reasched::service
