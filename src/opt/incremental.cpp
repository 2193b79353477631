#include "opt/incremental.hpp"

#include <algorithm>
#include <stdexcept>

#include "opt/list_scheduler.hpp"
#include "sim/event.hpp"

namespace reasched::opt {

namespace {
/// Deflation factor for the optimistic part of the lower bound. The running
/// area sums accumulate O(n * eps) relative rounding error (~1e-12 at 10k
/// jobs); shaving 1e-10 off the bound keeps it admissible with two orders
/// of magnitude to spare while staying far below any tolerance a caller's
/// acceptance predicate could notice.
constexpr double kBoundSlack = 1.0 - 1e-10;
}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const ProblemView& problem,
                                           const ObjectiveWeights& weights, EvalPolicy policy)
    : problem_(&problem), weights_(weights), policy_(policy) {
  // Written so that NaN fails the test too.
  if (!(weights.wait_weight >= 0.0)) {
    throw std::invalid_argument("IncrementalEvaluator: wait_weight must be nonnegative");
  }
  now_ = problem.now();
  total_nodes_ = problem.total_nodes();
  total_memory_ = problem.total_memory_gb();

  if (total_nodes_ > 0) inv_total_nodes_ = 1.0 / static_cast<double>(total_nodes_);
  if (total_memory_ > 0.0) inv_total_memory_ = 1.0 / total_memory_;

  const std::size_t n = problem.n_jobs();
  attr_.resize(n + problem.n_pinned());
  all_ = {0.0, 0.0, 0.0, n};
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Job& job = problem.job(i);
    Attr& a = attr_[i];
    a.release = std::max(now_, job.submit_time);
    a.duration = job.duration;
    a.memory_gb = job.memory_gb;
    a.nodes = job.nodes;
    a.node_area = static_cast<double>(job.nodes) * job.duration;
    a.mem_area = job.memory_gb * job.duration;
    a.completion_lb = a.release + job.duration;
    all_.node_area += a.node_area;
    all_.mem_area += a.mem_area;
    all_.cp = std::max(all_.cp, a.completion_lb);
  }

  // Checkpoint stride: bounds snapshot memory to ~64 heap copies while
  // keeping replay-to-divergence under stride_ placements per candidate.
  stride_ = std::max<std::size_t>(8, (n + 63) / 64);

  // Initial state, replicating decode_subset's prologue exactly: subtract
  // every pinned allocation in order and push its release (push order
  // matters for equal-time pop ties, hence for float reproducibility).
  State s0{now_, total_nodes_, total_memory_, 0.0, 0.0, 0.0, 0.0, 0.0};
  heap_.clear();
  for (std::size_t p = 0; p < problem.n_pinned(); ++p) {
    const Problem::Pinned pin = problem.pinned(p);
    s0.free_nodes -= pin.nodes;
    s0.free_memory -= pin.memory_gb;
    Attr& slot = attr_[n + p];  // synthetic slot: pops only read nodes/memory
    slot = {};
    slot.nodes = pin.nodes;
    slot.memory_gb = pin.memory_gb;
    heap_.push_back({pin.end_time, static_cast<std::uint32_t>(n + p)});
    std::push_heap(heap_.begin(), heap_.end(), LaterRelease{});
  }
  record_checkpoint(0, s0);
  n_checkpoints_ = 1;
  final_ = s0;
  cached_score_ = exact_score(s0);
}

void IncrementalEvaluator::place(State& s, std::size_t j) {
  const Attr& a = attr_[j];
  double clock = std::max(s.clock, a.release);
  while (s.free_nodes < a.nodes || !sim::mem_fits(s.free_memory, a.memory_gb)) {
    if (heap_.empty()) {
      throw std::logic_error("decode_order: job never fits (capacity violation upstream)");
    }
    const Release r = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), LaterRelease{});
    heap_.pop_back();
    clock = std::max(clock, r.time);
    const Attr& ra = attr_[r.idx];
    s.free_nodes += ra.nodes;
    s.free_memory += ra.memory_gb;
    while (!heap_.empty() && heap_.front().time <= clock) {
      const Attr& fa = attr_[heap_.front().idx];
      s.free_nodes += fa.nodes;
      s.free_memory += fa.memory_gb;
      std::pop_heap(heap_.begin(), heap_.end(), LaterRelease{});
      heap_.pop_back();
    }
  }
  const double start = clock;
  const double end = start + a.duration;
  s.free_nodes -= a.nodes;
  s.free_memory -= a.memory_gb;
  heap_.push_back({end, static_cast<std::uint32_t>(j)});
  std::push_heap(heap_.begin(), heap_.end(), LaterRelease{});
  s.clock = clock;
  s.makespan = std::max(s.makespan, end);
  s.wait += start - a.release;
  s.placed_node_area += a.node_area;
  s.placed_mem_area += a.mem_area;
  if (a.completion_lb > s.placed_cp) s.placed_cp = a.completion_lb;
  ++stats_.steps_decoded;
}

double IncrementalEvaluator::exact_score(const State& s) const {
  return s.makespan + weights_.wait_weight * s.wait;
}

double IncrementalEvaluator::lower_bound(const State& s, const Totals& t,
                                         std::size_t placed) const {
  // Exact part: the score of the placed prefix. Every accumulator is
  // monotone in the remaining decode, so this needs no deflation.
  const double exact = exact_score(s);
  if (placed >= t.count) return exact;
  // Optimistic completion of the remaining work (branch_and_bound's
  // critical-path + resource-area arguments, anchored at the clock: every
  // not-yet-placed job starts at or after `clock`, so the remaining areas
  // must drain through the machine's full capacity from there).
  double mk = s.makespan > t.cp ? s.makespan : t.cp;
  if (total_nodes_ > 0) {
    const double x = s.clock + (t.node_area - s.placed_node_area) * inv_total_nodes_;
    if (x > mk) mk = x;
  }
  if (total_memory_ > 0.0) {
    const double x = s.clock + (t.mem_area - s.placed_mem_area) * inv_total_memory_;
    if (x > mk) mk = x;
  }
  const double bound = (mk + weights_.wait_weight * s.wait) * kBoundSlack;
  return bound > exact ? bound : exact;
}

bool IncrementalEvaluator::cuts(double lb, double cutoff, CutoffMode mode) {
  switch (mode) {
    case CutoffMode::kGreaterEqual:
      return lb >= cutoff;
    case CutoffMode::kGreater:
      return lb > cutoff;
    case CutoffMode::kTolerance:
      // improves is monotone: if the bound already fails, so does any
      // score >= bound (x + tol(x) is nondecreasing for x >= 0).
      return !improves(lb, cutoff);
  }
  return false;
}

std::size_t IncrementalEvaluator::divergence(const std::vector<std::size_t>& order) const {
  const std::size_t limit = std::min(order.size(), base_.size());
  std::size_t d = 0;
  while (d < limit && order[d] == base_[d]) ++d;
  return d;
}

std::size_t IncrementalEvaluator::load_checkpoint(std::size_t index, State& s) {
  const Checkpoint& ck = checkpoints_[index];
  s = ck.state;
  heap_ = ck.heap;
  return index * stride_;
}

void IncrementalEvaluator::record_checkpoint(std::size_t index, const State& s) {
  if (checkpoints_.size() <= index) checkpoints_.resize(index + 1);
  checkpoints_[index].state = s;
  checkpoints_[index].heap = heap_;
}

void IncrementalEvaluator::record_pending(std::size_t index, const State& s) {
  if (pending_checkpoints_.size() <= index) pending_checkpoints_.resize(index + 1);
  pending_checkpoints_[index].state = s;
  pending_checkpoints_[index].heap = heap_;
}

void IncrementalEvaluator::finish_pending(const std::vector<std::size_t>& order, std::size_t d,
                                          const State& s, double score) {
  if (order.size() % stride_ == 0 && order.size() >= d) {
    record_pending(order.size() / stride_, s);
  }
  pending_base_ = order;
  pending_n_checkpoints_ = order.size() / stride_ + 1;
  pending_final_ = s;
  pending_score_ = score;
  pending_valid_ = true;
}

bool IncrementalEvaluator::commit_last() {
  if (!pending_valid_) return false;
  base_.swap(pending_base_);
  if (checkpoints_.size() < pending_n_checkpoints_) checkpoints_.resize(pending_n_checkpoints_);
  // Indices below pending_first_ck_ cover the shared prefix and are already
  // correct in the base's list; the rest were recorded during the candidate
  // decode. Swapping moves the heap arrays without copying.
  for (std::size_t k = pending_first_ck_; k < pending_n_checkpoints_; ++k) {
    std::swap(checkpoints_[k], pending_checkpoints_[k]);
  }
  n_checkpoints_ = pending_n_checkpoints_;
  final_ = pending_final_;
  cached_score_ = pending_score_;
  pending_valid_ = false;
  return true;
}

double IncrementalEvaluator::full_oracle(const std::vector<std::size_t>& order) const {
  return evaluate(decode_subset(*problem_, order), weights_);
}

void IncrementalEvaluator::check_exact(const std::vector<std::size_t>& order, double got) const {
  if (!policy_.cross_check) return;
  const double full = full_oracle(order);
  if (full != got) {
    throw std::logic_error(
        "IncrementalEvaluator cross-check: incremental score diverged from full evaluate");
  }
}

void IncrementalEvaluator::check_abort(const std::vector<std::size_t>& order, double lb,
                                       double cutoff, CutoffMode mode) const {
  if (!policy_.cross_check) return;
  const double full = full_oracle(order);
  if (lb > full) {
    throw std::logic_error("IncrementalEvaluator cross-check: cutoff bound not admissible");
  }
  if (!cuts(full, cutoff, mode)) {
    throw std::logic_error("IncrementalEvaluator cross-check: cutoff abort was not safe");
  }
}

std::vector<std::size_t> IncrementalEvaluator::materialize_insertion(std::size_t pos,
                                                                     std::size_t job_index) const {
  std::vector<std::size_t> order;
  order.reserve(base_.size() + 1);
  order.insert(order.end(), base_.begin(), base_.begin() + static_cast<std::ptrdiff_t>(pos));
  order.push_back(job_index);
  order.insert(order.end(), base_.begin() + static_cast<std::ptrdiff_t>(pos), base_.end());
  return order;
}

double IncrementalEvaluator::score(const std::vector<std::size_t>& order) {
  ++stats_.evaluations;
  pending_valid_ = false;
  resume_valid_ = false;
  if (!policy_.incremental) {
    const double full = full_oracle(order);
    base_ = order;  // insertion sweeps still need the base order in oracle mode
    return full;
  }
  const std::size_t d = divergence(order);
  if (d == order.size() && d == base_.size()) {
    stats_.steps_reused += d;
    check_exact(order, cached_score_);
    return cached_score_;
  }

  State s;
  std::size_t pos = load_checkpoint(std::min(d / stride_, n_checkpoints_ - 1), s);
  stats_.steps_reused += pos;
  for (; pos < d; ++pos) place(s, base_[pos]);  // bit-identical prefix replay

  // Adopt the candidate tail; the shared prefix (and its checkpoints) is
  // already in place.
  base_.resize(order.size());
  std::copy(order.begin() + static_cast<std::ptrdiff_t>(d), order.end(),
            base_.begin() + static_cast<std::ptrdiff_t>(d));

  for (; pos < order.size(); ++pos) {
    if (pos % stride_ == 0) record_checkpoint(pos / stride_, s);
    place(s, order[pos]);
  }
  // A divergence at exactly the end of this order needs a checkpoint there
  // too (the loop above only records *before* a placement).
  if (order.size() % stride_ == 0) record_checkpoint(order.size() / stride_, s);
  n_checkpoints_ = order.size() / stride_ + 1;
  final_ = s;
  cached_score_ = exact_score(s);
  check_exact(order, cached_score_);
  return cached_score_;
}

IncrementalEvaluator::Result IncrementalEvaluator::score_with_cutoff(
    const std::vector<std::size_t>& order, double cutoff, CutoffMode mode) {
  ++stats_.evaluations;
  pending_valid_ = false;
  resume_valid_ = false;
  if (!policy_.incremental) {
    return {full_oracle(order), true};
  }
  const std::size_t d = divergence(order);
  if (d == order.size() && d == base_.size()) {
    stats_.steps_reused += d;
    check_exact(order, cached_score_);
    return {cached_score_, true};
  }
  const bool armed = order.size() == problem_->n_jobs() && cutoff < kNoCutoff;

  State s;
  std::size_t pos = load_checkpoint(std::min(d / stride_, n_checkpoints_ - 1), s);
  stats_.steps_reused += pos;
  for (; pos < d; ++pos) place(s, base_[pos]);

  // Record checkpoints along the candidate's own trajectory (positions the
  // base's snapshots no longer cover) so commit_last() can adopt this order
  // without re-decoding it. Same record-before-place schedule as score().
  pending_first_ck_ = (d + stride_ - 1) / stride_;
  for (; pos < order.size(); ++pos) {
    if (pos % stride_ == 0 && pos >= d) record_pending(pos / stride_, s);
    place(s, order[pos]);
    // Bound cadence: testing every placement costs ~10% of the decode while
    // aborts overwhelmingly fire deep in the suffix, so probe every fourth
    // position. An abort landing up to three placements later is still the
    // same decision - any admissible abort schedule is (see class doc) - the
    // probe just gets 4x cheaper amortized.
    if (armed && (pos & 3u) == 3u) {
      const double lb = lower_bound(s, all_, pos + 1);
      if (cuts(lb, cutoff, mode)) {
        ++stats_.cutoff_hits;
        check_abort(order, lb, cutoff, mode);
        // Snapshot for resume_exact: heap_ already holds the abort-time heap
        // and stays untouched until the next evaluation call.
        resume_state_ = s;
        resume_pos_ = pos + 1;
        resume_d_ = d;
        resume_valid_ = true;
        return {lb, false};
      }
    }
  }
  const double got = exact_score(s);
  check_exact(order, got);
  finish_pending(order, d, s, got);
  return {got, true};
}

IncrementalEvaluator::Result IncrementalEvaluator::resume_exact(
    const std::vector<std::size_t>& order) {
  if (!resume_valid_) {
    throw std::logic_error("resume_exact: no aborted score_with_cutoff call to resume");
  }
  resume_valid_ = false;
  ++stats_.evaluations;
  State s = resume_state_;
  std::size_t pos = resume_pos_;
  // Continue the aborted call's record-before-place checkpoint schedule so a
  // subsequent commit_last() adopts the full trajectory.
  for (; pos < order.size(); ++pos) {
    if (pos % stride_ == 0 && pos >= resume_d_) record_pending(pos / stride_, s);
    place(s, order[pos]);
  }
  const double got = exact_score(s);
  check_exact(order, got);
  finish_pending(order, resume_d_, s, got);
  return {got, true};
}

IncrementalEvaluator::Result IncrementalEvaluator::score_insertion(std::size_t pos,
                                                                   std::size_t job_index,
                                                                   double cutoff,
                                                                   CutoffMode mode) {
  if (pos > base_.size()) {
    throw std::invalid_argument("score_insertion: position beyond cached base order");
  }
  ++stats_.evaluations;
  pending_valid_ = false;
  resume_valid_ = false;
  if (!policy_.incremental) {
    return {full_oracle(materialize_insertion(pos, job_index)), true};
  }
  const Attr& ins = attr_[job_index];
  const bool armed = cutoff < kNoCutoff;
  const Totals t{final_.placed_node_area + ins.node_area, final_.placed_mem_area + ins.mem_area,
                 std::max(final_.placed_cp, ins.completion_lb), base_.size() + 1};

  State s;
  std::size_t at = load_checkpoint(std::min(pos / stride_, n_checkpoints_ - 1), s);
  stats_.steps_reused += at;
  for (; at < pos; ++at) place(s, base_[at]);

  place(s, job_index);
  if (armed) {
    const double lb = lower_bound(s, t, pos + 1);
    if (cuts(lb, cutoff, mode)) {
      ++stats_.cutoff_hits;
      if (policy_.cross_check) check_abort(materialize_insertion(pos, job_index), lb, cutoff, mode);
      return {lb, false};
    }
  }
  for (std::size_t k = pos; k < base_.size(); ++k) {
    place(s, base_[k]);
    if (armed) {
      const double lb = lower_bound(s, t, k + 2);
      if (cuts(lb, cutoff, mode)) {
        ++stats_.cutoff_hits;
        if (policy_.cross_check) {
          check_abort(materialize_insertion(pos, job_index), lb, cutoff, mode);
        }
        return {lb, false};
      }
    }
  }
  const double got = exact_score(s);
  if (policy_.cross_check) check_exact(materialize_insertion(pos, job_index), got);
  return {got, true};
}

}  // namespace reasched::opt
