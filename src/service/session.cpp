#include "service/session.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "obs/trace.hpp"
#include "service/snapshot.hpp"
#include "util/string_utils.hpp"

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
        return render_stats(engine, obs::enabled(), obs::TraceRecorder::global().stats());
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
  // istream::getline stores at most size - 1 characters; a longer line sets
  // failbit (without eofbit) and leaves its tail in the stream.
  std::vector<char> buffer(kMaxRequestBytes + 1);
  while (!stats.shutdown) {
    in.getline(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    std::string response;
    if (in.fail()) {
      if (in.eof() || in.gcount() == 0) break;
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      response = render_error(util::format("request: line exceeds %zu bytes", kMaxRequestBytes));
    } else {
      // gcount() counts the newline too, unless the line ended at EOF.
      const auto length = static_cast<std::size_t>(in.gcount() - (in.eof() ? 0 : 1));
      if (length == 0) continue;
      try {
        const Request request = parse_request(std::string(buffer.data(), length));
        response = handle_request(engine, request, stats.shutdown);
      } catch (const ProtocolError& e) {
        response = render_error(e.what());
      }
    }
    ++stats.n_requests;
    if (response.rfind("{\"ok\":false", 0) == 0) ++stats.n_errors;
    // Flush per line: clients block on our responses (and the checkpoint ack
    // is the durability signal CI kills the process on), so responses must
    // not sit in a full-buffered redirect.
    out << response << std::endl;
  }
  return stats;
}

}  // namespace reasched::service
