#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace reasched::obs {

// ---------------------------------------------------------------------------
// Global observability switch.
//
// Instrumentation sites guard on obs::enabled() (one relaxed atomic load)
// before touching the registry or the tracer, so a disabled run pays a
// predictable branch and nothing else. On and off must be behaviorally
// indistinguishable in decision output, which the obs golden test pins.
// ---------------------------------------------------------------------------
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

/// Monotonically increasing event count. Relaxed atomics: cells are
/// independent, cross-cell ordering is reconstructed by the snapshot reader,
/// not promised by the writer.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, sim clock, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram's cells. `counts` has
/// bounds.size() + 1 entries; the final bucket is the overflow (> last
/// bound). count/sum are sampled after the buckets, so under concurrent
/// writers they can run slightly ahead of the bucket total - never behind.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram: ascending upper bounds set at registration, one
/// overflow bucket past the last bound. observe() is two relaxed fetch_adds
/// plus a branchless-ish linear scan over a handful of bounds - no locking,
/// no allocation after construction.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  const std::vector<double>& bounds() const { return bounds_; }
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name-sorted point-in-time copy of every registered cell.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Registry of named telemetry cells. Registration (counter/gauge/histogram
/// lookup-or-create) takes the registry mutex; the returned reference is
/// stable for the registry's lifetime (node-based map + unique_ptr), so hot
/// paths resolve names once, cache the pointer, and afterwards touch only
/// the lock-free cell.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Process-wide registry used by the built-in instrumentation. Tests
  /// wanting isolation construct their own instance.
  static MetricRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-registration with different bounds is a programming error (throws
  /// std::invalid_argument): two sites disagreeing on the bucket layout
  /// would silently merge incompatible data.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  RegistrySnapshot snapshot() const;

  /// Zero every cell, keeping registrations (and cached pointers) valid.
  void reset();

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

}  // namespace reasched::obs
