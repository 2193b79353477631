#pragma once

#include <map>
#include <vector>

namespace reasched::opt {

/// Piecewise-constant (nodes, memory) usage over time. A test oracle:
/// tests replay planned schedules and engine runs through it to check
/// capacity instant-by-instant, independently of the fast list-schedule
/// decoder. Nothing in src/ validates plans with it.
class ResourceProfile {
 public:
  ResourceProfile(int total_nodes, double total_memory_gb);

  int total_nodes() const { return total_nodes_; }
  double total_memory_gb() const { return total_memory_gb_; }

  /// Reserve (nodes, memory) over [start, start + duration).
  /// Throws std::logic_error if capacity would be exceeded anywhere.
  void add(double start, double duration, int nodes, double memory_gb);

  /// True when the demand fits everywhere in [start, start + duration).
  bool fits(double start, double duration, int nodes, double memory_gb) const;

  /// Earliest t >= not_before such that the demand fits over [t, t+duration).
  double earliest_fit(double not_before, double duration, int nodes, double memory_gb) const;

  /// Peak node usage across all time (for utilization sanity checks).
  int peak_nodes() const;

 private:
  struct Usage {
    int nodes = 0;
    double memory_gb = 0.0;
  };
  /// usage_[t] = usage on [t, next key). Always contains key 0.
  std::map<double, Usage> usage_;
  int total_nodes_;
  double total_memory_gb_;

  /// Ensure a breakpoint exists at t (copying the prevailing usage).
  std::map<double, Usage>::iterator ensure_breakpoint(double t);
};

}  // namespace reasched::opt
