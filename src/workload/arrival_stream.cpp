#include "workload/arrival_stream.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace reasched::workload {

ArrivalStream::ArrivalStream(StreamSpec spec, std::uint64_t seed, GenerateOptions options)
    : spec_(std::move(spec)), seed_(seed), options_(std::move(options)) {
  if (!(spec_.rate_scale > 0.0)) {
    throw std::invalid_argument(
        util::format("ArrivalStream: rate_scale must be positive (got %g)", spec_.rate_scale));
  }
}

void ArrivalStream::ensure_batch() {
  if (cursor_ < batch_.size() || spec_.batch_jobs == 0) return;
  if (spec_.max_batches != 0 && batch_index_ >= spec_.max_batches) return;

  const std::uint64_t batch_seed = util::derive_seed(seed_, "batch", batch_index_);
  batch_ = generate_scenario(spec_.scenario, spec_.batch_jobs, batch_seed, options_);
  cursor_ = 0;

  // Emission order is arrival order; generators already sort, but transforms
  // (e.g. adversarial's post-process) may not preserve it, and the stream's
  // contract is strict.
  // total-order: arrival_order breaks submit-time ties by unique JobId.
  std::sort(batch_.begin(), batch_.end(), sim::arrival_order);

  // Rate-scale and offset submit times into this batch's window, keeping the
  // batch's internal gap structure (divided by rate_scale).
  const double t0 = batch_.empty() ? 0.0 : batch_.front().submit_time;
  double span = 0.0;
  for (sim::Job& job : batch_) {
    const double t = time_offset_ + (job.submit_time - t0) / spec_.rate_scale;
    span = std::max(span, t - time_offset_);
    job.submit_time = t;
  }

  // Backward-only dependency normalization: a streamed job may depend only on
  // jobs that precede it in arrival order (the online table appends in
  // arrival order, so a forward edge could never be admitted). Looped-trace
  // DAG transforms are arrival-contiguous, so this is a no-op for them; it
  // guards arbitrary specs.
  std::map<sim::JobId, std::size_t> position;
  for (std::size_t i = 0; i < batch_.size(); ++i) position.emplace(batch_[i].id, i);
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    std::vector<sim::JobId>& deps = batch_[i].dependencies;
    std::erase_if(deps, [&](sim::JobId dep) {
      const auto it = position.find(dep);
      return it == position.end() || it->second >= i;
    });
  }

  // Remap batch-local ids (1..batch_jobs) into the stream-unique id space.
  const sim::JobId id_offset =
      static_cast<sim::JobId>(batch_index_ * spec_.batch_jobs);
  for (sim::Job& job : batch_) {
    job.id += id_offset;
    for (sim::JobId& dep : job.dependencies) dep += id_offset;
  }

  // Next batch starts one mean batch gap past this batch's last arrival, so
  // consecutive loops look like one continuous process rather than bursts.
  const double mean_gap =
      (batch_.size() > 1 && span > 0.0) ? span / static_cast<double>(batch_.size() - 1) : 1.0;
  time_offset_ += span + mean_gap;
  ++batch_index_;
}

const sim::Job* ArrivalStream::peek() {
  ensure_batch();
  if (cursor_ >= batch_.size()) return nullptr;
  return &batch_[cursor_];
}

sim::Job ArrivalStream::pop() {
  if (peek() == nullptr) {
    throw std::logic_error("ArrivalStream: pop() past the end of the stream");
  }
  ++emitted_;
  return std::move(batch_[cursor_++]);
}

StreamSpec make_stream_spec(const std::string& scenario, std::size_t batch_jobs,
                            std::size_t max_batches, double rate_scale) {
  if (batch_jobs > kMaxStreamJobs) {
    throw std::invalid_argument(
        util::format("stream spec: batch_jobs %zu exceeds the stream limit of %zu jobs",
                     batch_jobs, kMaxStreamJobs));
  }
  // Divide rather than multiply: the product can overflow std::size_t.
  if (batch_jobs != 0 && max_batches > kMaxStreamJobs / batch_jobs) {
    throw std::invalid_argument(util::format(
        "stream spec: max_batches %zu x batch_jobs %zu exceeds the stream limit of %zu jobs; "
        "max_batches 0 streams without end",
        max_batches, batch_jobs, kMaxStreamJobs));
  }
  StreamSpec spec;
  spec.scenario = ScenarioSpec::parse(scenario);
  spec.batch_jobs = batch_jobs;
  spec.max_batches = max_batches;
  spec.rate_scale = rate_scale;
  if (!(rate_scale > 0.0)) {
    throw std::invalid_argument(
        util::format("stream spec: rate_scale must be positive (got %g)", rate_scale));
  }
  return spec;
}

}  // namespace reasched::workload
