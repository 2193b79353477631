#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "service/snapshot.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"

namespace rsvc = reasched::service;
namespace rs = reasched::sim;
namespace ru = reasched::util;

namespace {

rsvc::Request parse(const std::string& line) { return rsvc::parse_request(line); }

// Expects `line` to be refused with a ProtocolError whose message names
// `field`.
void expect_refused(const std::string& line, const std::string& field) {
  try {
    parse(line);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const rsvc::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + field + "\""), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(ServiceProtocol, ParsesEveryOp) {
  const rsvc::Request submit =
      parse(R"({"op":"submit","job":{"duration":60,"nodes":4,"memory_gb":8,"user":2}})");
  EXPECT_EQ(submit.op, rsvc::Request::Op::kSubmit);
  EXPECT_DOUBLE_EQ(submit.job.duration, 60.0);
  EXPECT_EQ(submit.job.nodes, 4);
  EXPECT_DOUBLE_EQ(submit.job.walltime, 60.0);  // defaults to duration

  const rsvc::Request status = parse(R"({"op":"query"})");
  EXPECT_EQ(status.op, rsvc::Request::Op::kQuery);
  EXPECT_FALSE(status.has_id);

  const rsvc::Request one = parse(R"({"op":"query","id":3})");
  EXPECT_TRUE(one.has_id);
  EXPECT_EQ(one.id, 3);

  const rsvc::Request cancel = parse(R"({"op":"cancel","id":7})");
  EXPECT_EQ(cancel.op, rsvc::Request::Op::kCancel);
  EXPECT_EQ(cancel.id, 7);

  const rsvc::Request advance = parse(R"({"op":"advance","to":3600.5})");
  EXPECT_EQ(advance.op, rsvc::Request::Op::kAdvance);
  EXPECT_DOUBLE_EQ(advance.to, 3600.5);

  EXPECT_EQ(parse(R"({"op":"drain"})").op, rsvc::Request::Op::kDrain);
  const rsvc::Request checkpoint = parse(R"({"op":"checkpoint","path":"snap.json"})");
  EXPECT_EQ(checkpoint.op, rsvc::Request::Op::kCheckpoint);
  EXPECT_EQ(checkpoint.path, "snap.json");
  EXPECT_EQ(parse(R"({"op":"shutdown"})").op, rsvc::Request::Op::kShutdown);
}

TEST(ServiceProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse("not json"), rsvc::ProtocolError);
  EXPECT_THROW(parse(R"([1,2,3])"), rsvc::ProtocolError);
  EXPECT_THROW(parse(R"({"op":"frobnicate"})"), rsvc::ProtocolError);
  EXPECT_THROW(parse(R"({"no_op":true})"), rsvc::ProtocolError);
  EXPECT_THROW(parse(R"({"op":"submit"})"), rsvc::ProtocolError);          // no job
  EXPECT_THROW(parse(R"({"op":"submit","job":{"nodes":4}})"),              // no duration
               rsvc::ProtocolError);
  EXPECT_THROW(parse(R"({"op":"cancel"})"), rsvc::ProtocolError);          // no id
  EXPECT_THROW(parse(R"({"op":"advance"})"), rsvc::ProtocolError);         // no to
  EXPECT_THROW(parse(R"({"op":"checkpoint"})"), rsvc::ProtocolError);      // no path
}

TEST(ServiceProtocol, DeeplyNestedLinesAreRefusedNotRecursed) {
  // One 50,000-deep line used to overflow the parser's stack; it is now a
  // ProtocolError naming the depth limit, on requests and snapshots alike.
  const std::string deep(50000, '[');
  try {
    parse(deep);
    ADD_FAILURE() << "deep line accepted";
  } catch (const rsvc::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos) << e.what();
  }
  EXPECT_THROW(rsvc::restore_snapshot_text(deep), rsvc::SnapshotError);
}

TEST(ServiceProtocol, IntegerFieldsRejectFractionsAndOutOfRangeValues) {
  // Out of int range: casting these doubles to int is undefined behaviour.
  expect_refused(R"({"op":"cancel","id":1e300})", "id");
  expect_refused(R"({"op":"cancel","id":-1e300})", "id");
  expect_refused(R"({"op":"query","id":2147483648})", "id");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":1e300}})", "nodes");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":4,"id":1e300}})", "id");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":4,"user":1e300}})", "user");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":4,"group":-1e300}})",
                 "group");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":4,"dependencies":[1e300]}})",
                 "dependencies[0]");
  // Fractions are refused, not truncated - dependencies included.
  expect_refused(R"({"op":"cancel","id":2.5})", "id");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":2.5}})", "nodes");
  expect_refused(R"({"op":"submit","job":{"duration":60,"nodes":4,"dependencies":[1,2.5]}})",
                 "dependencies[1]");

  // In-range integers parse exactly, negative ones included; whether a
  // value makes sense is the engine's call, not the codec's.
  EXPECT_EQ(parse(R"({"op":"cancel","id":-1})").id, -1);
  EXPECT_EQ(parse(R"({"op":"cancel","id":2147483647})").id, 2147483647);
  EXPECT_EQ(parse(R"({"op":"submit","job":{"duration":60,"nodes":-1}})").job.nodes, -1);
  EXPECT_EQ(parse(R"({"op":"submit","job":{"duration":60,"nodes":4,"dependencies":[2.0]}})")
                .job.dependencies,
            std::vector<rs::JobId>{2});
}

TEST(ServiceProtocol, JobCodecRoundTripsEveryField) {
  rs::Job job;
  job.id = 42;
  job.user = 3;
  job.group = 2;
  job.submit_time = 1234.0625;  // exactly representable, survives the codec
  job.duration = 300.1;
  job.walltime = 360.0;
  job.nodes = 16;
  job.memory_gb = 128.5;
  job.dependencies = {7, 9};

  ru::JsonWriter w;
  rsvc::job_to_json(w, job);
  const rs::Job back = rsvc::job_from_json(ru::parse_json(w.str()));
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.user, job.user);
  EXPECT_EQ(back.group, job.group);
  EXPECT_EQ(back.submit_time, job.submit_time);
  EXPECT_EQ(back.duration, job.duration);  // bit-exact, not approximately
  EXPECT_EQ(back.walltime, job.walltime);
  EXPECT_EQ(back.nodes, job.nodes);
  EXPECT_EQ(back.memory_gb, job.memory_gb);
  EXPECT_EQ(back.dependencies, job.dependencies);
}

TEST(ServiceProtocol, RenderersEmitSingleJsonLines) {
  EXPECT_EQ(rsvc::render_submit(5), R"({"ok":true,"op":"submit","id":5})");
  EXPECT_EQ(rsvc::render_cancel({3, 4}),
            R"({"ok":true,"op":"cancel","cancelled":[3,4]})");
  EXPECT_EQ(rsvc::render_shutdown(), R"({"ok":true,"op":"shutdown"})");

  const std::string error = rsvc::render_error("bad \"thing\"");
  EXPECT_EQ(error.rfind(R"({"ok":false,"error":)", 0), 0u);
  EXPECT_TRUE(ru::parse_json(error).at("error").is_string());  // quoting holds

  rsvc::ServiceStatus status;
  status.clock = 10.5;
  status.n_running = 2;
  const ru::JsonValue parsed = ru::parse_json(rsvc::render_status(status));
  EXPECT_TRUE(parsed.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(parsed.at("clock").as_number(), 10.5);
  EXPECT_DOUBLE_EQ(parsed.at("running").as_number(), 2.0);
}

TEST(ServiceProtocol, DecisionTraceIsExactJsonLines) {
  rs::ScheduleResult schedule;
  rs::DecisionRecord start;
  start.time = 0.1;  // %.10g would print this fine; exactness matters for
                     // times like 0.30000000000000004 from accumulated steps
  start.action = rs::Action::start(1);
  start.accepted = true;
  schedule.decisions.push_back(start);
  rs::DecisionRecord delay;
  delay.time = 0.30000000000000004;
  delay.action = rs::Action::delay();
  delay.accepted = true;
  schedule.decisions.push_back(delay);

  const std::string trace = rsvc::render_decision_trace(schedule);
  // One line per decision; every "t" round-trips to the identical double.
  std::size_t line_count = 1;
  for (const char c : trace) {
    if (c == '\n') ++line_count;
  }
  if (!trace.empty() && trace.back() == '\n') --line_count;
  EXPECT_EQ(line_count, 2u);
  EXPECT_NE(trace.find("\"action\":\"StartJob(job_id=1)\""), std::string::npos);
  EXPECT_NE(trace.find(ru::format_double_exact(0.30000000000000004)),
            std::string::npos);
}

TEST(ServiceProtocol, ExactDoubleFormattingRoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 0.30000000000000004, 1e-300, 12345678.9}) {
    const std::string s = ru::format_double_exact(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}
