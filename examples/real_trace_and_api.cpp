// Bridging to the real world: (a) replay a Standard Workload Format trace -
// the format of the Parallel Workloads Archive - through the schedulers, and
// (b) show the HTTP client seam a production deployment would use to talk
// to the actual Claude / O4 endpoints the paper evaluated.
//
// No network access is needed: the demo exports a synthetic workload as SWF,
// reads it back, and drives the HTTP client through a mock transport that
// answers with a provider-shaped JSON payload.
//
//   ./examples/real_trace_and_api [--swf path/to/trace.swf] [--jobs 40]

#include <cstdio>

#include "core/react_agent.hpp"
#include "harness/experiment.hpp"
#include "llm/http_client.hpp"
#include "metrics/report.hpp"
#include "util/cli.hpp"
#include "workload/scenario_spec.hpp"
#include "workload/swf.hpp"

using namespace reasched;

static int run(const util::CliArgs& args) {
  const auto n_jobs = args.get_size("jobs", 40);

  // --- Part A: SWF replay ---------------------------------------------------
  std::vector<sim::Job> jobs;
  if (args.has("swf")) {
    workload::SwfOptions options;
    options.max_nodes = sim::ClusterSpec::paper_default().total_nodes;
    jobs = workload::load_swf(args.get("swf", ""), options);
    // Ids, users and t0 follow the sorted order, so the first n_jobs are the
    // jobs a capped parse would have returned.
    if (jobs.size() > n_jobs) jobs.resize(n_jobs);
    std::printf("Loaded %zu completed jobs from SWF trace %s\n", jobs.size(),
                args.get("swf", "").c_str());
  } else {
    // Round-trip a synthetic workload through the SWF format to demonstrate
    // the exact path a real archive trace would take.
    const auto synthetic = workload::generate_scenario("hetero_mix", n_jobs, 77);
    const std::string swf_text = workload::jobs_to_swf(synthetic);
    jobs = workload::parse_swf(swf_text);
    std::printf("Round-tripped %zu synthetic jobs through SWF (no --swf given)\n",
                jobs.size());
  }

  std::vector<metrics::MethodResult> rows;
  for (const harness::MethodSpec method : {"fcfs", "easy", "agent:claude37"}) {
    const auto outcome = harness::run_method(jobs, method, 77);
    rows.push_back({harness::method_label(method), outcome.metrics});
  }
  std::printf("\nSWF replay, normalized to FCFS:\n%s\n",
              metrics::render_normalized_table(rows, "FCFS").c_str());

  // --- Part B: the real-API seam ---------------------------------------------
  // A mock transport standing in for libcurl: answers every POST with a
  // fixed Anthropic-shaped completion. Swap this lambda for a real HTTP call
  // and the ReAct agent runs against the live API unchanged.
  auto mock_transport = [](const llm::HttpExchange& exchange) {
    std::printf("  POST %s (payload %zu bytes)\n", exchange.url.c_str(),
                exchange.body.size());
    return std::string(
        R"json({"content": [{"type": "text", "text": "Thought: demo transport\nAction: Delay"}],
                "usage": {"input_tokens": 1000, "output_tokens": 25}})json");
  };
  auto client = std::make_shared<llm::HttpClient>(
      llm::HttpClient::Options{llm::ProviderKind::kAnthropic,
                               "https://vertex.example/v1/messages",
                               "x-api-key: $ANTHROPIC_KEY"},
      llm::claude37_profile(), mock_transport);

  std::printf("HTTP-client seam demo (mock transport; first two calls shown):\n");
  core::ReActAgent agent(client, llm::claude37_profile());
  sim::Engine engine;
  // The mock always answers Delay, so the engine's livelock protection will
  // force progress - handy for demonstrating that the system stays safe even
  // against a completely unhelpful model.
  const auto result = engine.run(
      workload::generate_scenario("resource_sparse", 3, 5),
      agent);
  std::printf("Completed %zu jobs with %zu forced starts despite a Delay-only model.\n",
              result.completed.size(), result.n_forced_delays);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, {"jobs", "swf"}, run); }
