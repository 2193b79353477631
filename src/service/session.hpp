#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "service/protocol.hpp"
#include "service/service_engine.hpp"

namespace reasched::service {

/// Outcome of a service loop run.
struct LoopStats {
  std::size_t n_requests = 0;
  std::size_t n_errors = 0;
  bool shutdown = false;  ///< ended by a shutdown request (vs EOF)
};

/// Apply one parsed request to the engine and render the response line.
/// Never throws: every engine/protocol rejection becomes an error response.
/// Sets `shutdown` on a shutdown request.
std::string handle_request(ServiceEngine& engine, const Request& request, bool& shutdown);

/// The single-threaded service loop: one request line in, one response line
/// out, until EOF or shutdown. This is what `reasched_service` runs on
/// stdin/stdout.
LoopStats run_service_loop(ServiceEngine& engine, std::istream& in, std::ostream& out);

}  // namespace reasched::service
