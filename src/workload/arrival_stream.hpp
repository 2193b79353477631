#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "workload/scenario_spec.hpp"

namespace reasched::workload {

/// An unbounded (or batch-bounded) arrival process assembled from a
/// ScenarioSpec base - the workload side of the online service mode. Where
/// `generate_scenario` materializes one finite batch, a stream *loops* the
/// spec: batch k is generated lazily from an independent derived seed, its
/// submit times are rate-scaled and offset past the previous batch, and its
/// jobs are emitted one at a time in arrival order. A looped Polaris/SWF
/// replay or a rate-doubled paper scenario is then just a StreamSpec.
struct StreamSpec {
  ScenarioSpec scenario;
  /// Jobs generated per batch; 0 means an empty stream (external submits
  /// only).
  std::size_t batch_jobs = 0;
  /// Number of batches to emit; 0 = loop forever (a genuinely endless
  /// daemon workload - drain() is then illegal, only advance()).
  std::size_t max_batches = 1;
  /// Arrival-rate multiplier: submit-time gaps are divided by this, so 2.0
  /// doubles the offered load without touching job shapes.
  double rate_scale = 1.0;
};

/// One pending stream emission: the job (with a stream-unique id) in
/// arrival order.
///
/// Stream ids are internal - `batch_index * batch_jobs + local_id` - and
/// unique across batches; the service assigns the engine-facing JobId at
/// admit time and remaps dependencies, so external submissions and stream
/// arrivals share one id space without coordination.
class ArrivalStream {
 public:
  /// `seed` scopes every batch's generation stream; `options` is the
  /// effective generation context (its cluster must be the cluster the
  /// engine runs - pass it through workload::effective_cluster first, as
  /// the sweep layer does).
  ArrivalStream(StreamSpec spec, std::uint64_t seed, GenerateOptions options);

  /// Next job in arrival order without consuming it; nullptr when the
  /// stream is exhausted. Generates the next batch lazily.
  const sim::Job* peek();
  /// Consume and return the next job; throws std::logic_error when
  /// exhausted.
  sim::Job pop();

  bool exhausted() { return peek() == nullptr; }
  /// True when max_batches == 0 (drain() would never terminate).
  bool endless() const { return spec_.max_batches == 0; }
  /// Jobs emitted so far.
  std::size_t emitted() const { return emitted_; }

  const StreamSpec& spec() const { return spec_; }

 private:
  void ensure_batch();

  StreamSpec spec_;
  std::uint64_t seed_;
  GenerateOptions options_;
  std::vector<sim::Job> batch_;   ///< current batch, arrival order, stream ids
  std::size_t cursor_ = 0;        ///< next emission within batch_
  std::size_t batch_index_ = 0;   ///< batches generated so far
  std::size_t emitted_ = 0;
  double time_offset_ = 0.0;      ///< start of the next batch's time window
};

/// Most jobs one stream may generate: the cap on `batch_jobs` and, for a
/// finite stream, on `batch_jobs * max_batches`. An endless stream
/// (`max_batches == 0`) is held to the per-batch cap only.
inline constexpr std::size_t kMaxStreamJobs = 1'000'000;

/// Parse the stream knobs of a service config / CLI: the scenario spec
/// string plus batch size, batch count and rate scale. Central so the
/// service snapshot, the protocol layer and the reasched_service CLI agree
/// on one encoding. Refuses, naming the key, a stream over kMaxStreamJobs
/// before any batch is generated.
StreamSpec make_stream_spec(const std::string& scenario, std::size_t batch_jobs,
                            std::size_t max_batches, double rate_scale);

}  // namespace reasched::workload
