#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace reasched::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("obs::Histogram: bucket bounds must be ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  std::size_t bucket = bounds_.size();  // overflow unless a bound admits v
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts.push_back(counts_[i].load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry g;
  return g;
}

Counter& MetricRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else if (slot->bounds() != bounds) {
    throw std::invalid_argument(
        util::format("obs::MetricRegistry: histogram '%s' re-registered with different bounds",
                     name.c_str()));
  }
  return *slot;
}

RegistrySnapshot MetricRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  RegistrySnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) s.counters.emplace_back(name, cell->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) s.gauges.emplace_back(name, cell->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) s.histograms.emplace_back(name, cell->snapshot());
  return s;
}

void MetricRegistry::reset() {
  util::MutexLock lock(mu_);
  for (const auto& entry : counters_) entry.second->reset();
  for (const auto& entry : gauges_) entry.second->reset();
  for (const auto& entry : histograms_) entry.second->reset();
}

}  // namespace reasched::obs
