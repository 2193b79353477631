#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace reasched::obs {

// ---------------------------------------------------------------------------
// Global span-recording switch.
//
// Instrumentation sites guard on obs::enabled() (one relaxed atomic load)
// before touching the tracer, so a disabled run pays a predictable branch
// and nothing else. On and off must be behaviorally indistinguishable in
// decision output, which the obs golden test pins.
// ---------------------------------------------------------------------------
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

/// Sampling period for hot-path instrumentation: the engine records one
/// span every this-many steps/decisions.
/// A span costs two wall-clock reads plus a mutex-guarded copy with a
/// handful of string allocations - roughly a microsecond - against a
/// ~500ns-per-step simulation budget, so recording every step would mean
/// 2-3x overhead; at 1 in 1024 the measured overhead on the sustained-load
/// bench stays under the 2% gate with margin while a 10^4-job run still
/// yields tens of spans per category. Must be a power of two (the sample
/// test is a mask, never a division, on the hot path).
inline constexpr std::uint64_t kSampleEvery = 1024;

/// One completed span: a named wall-clock interval with numeric/string
/// arguments. sim_time < 0 means "not stamped" (spans outside a simulation).
struct SpanRecord {
  std::string name;
  std::string cat;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  double sim_time = -1.0;
  std::vector<std::pair<std::string, double>> args;
  std::vector<std::pair<std::string, std::string>> sargs;
};

/// Span-count bookkeeping for a recorder: ring occupancy plus how many
/// spans were evicted to stay within the bound.
struct TraceStats {
  std::size_t recorded = 0;  ///< spans currently held in the ring
  std::size_t dropped = 0;   ///< spans evicted (total - recorded)
  std::size_t capacity = 0;
};

/// Bounded ring of completed spans. record() is a mutex-guarded copy into a
/// preallocated slot; the ring keeps the newest `capacity` spans and counts
/// evictions instead of growing - a week-long service run cannot exhaust
/// memory through tracing. Export is Chrome trace-event JSON ("X" complete
/// events), loadable in Perfetto or chrome://tracing.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 65536);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder used by the built-in instrumentation.
  static TraceRecorder& global();

  void record(SpanRecord rec);

  /// Oldest-first copy of the ring contents.
  std::vector<SpanRecord> snapshot() const;
  TraceStats stats() const;
  void clear();

  std::string chrome_trace_json() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mu_;
  std::vector<SpanRecord> ring_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;   ///< slot the next record lands in
  std::size_t total_ GUARDED_BY(mu_) = 0;  ///< spans ever recorded
};

/// Chrome-trace output file. The constructor opens `path` and throws
/// std::runtime_error naming it when it cannot, so a binary that opens its
/// trace output before doing any work refuses an unwritable path up front
/// instead of losing every span at exit; write() saves the spans.
class ChromeTraceFile {
 public:
  explicit ChromeTraceFile(std::string path);
  void write(const TraceRecorder& recorder);

 private:
  std::string path_;
  std::ofstream out_;
};

/// RAII span. A default-constructed Span is inert (the disabled-telemetry
/// fast path moves one around for free); Span::begin() stamps the start
/// time and the destructor - or an explicit end() - stamps the duration and
/// hands the record to the recorder. Move-only.
class Span {
 public:
  Span() = default;
  static Span begin(TraceRecorder& recorder, std::string name, std::string cat);

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  bool active() const { return recorder_ != nullptr; }
  void arg(std::string key, double value);
  void sarg(std::string key, std::string value);
  void set_sim_time(double t);
  void end();

 private:
  TraceRecorder* recorder_ = nullptr;
  SpanRecord record_;
};

}  // namespace reasched::obs
