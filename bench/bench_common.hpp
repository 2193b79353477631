#pragma once

// Shared helpers for the benches: the BenchJson collector and the banner.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json_writer.hpp"

namespace reasched::bench {

/// Flat {"metric/name": value} JSON collector for the CI bench-regression
/// gate: the scaling benches record their decisions/sec figures here and
/// tools/compare_bench.py diffs the file against the checked-in
/// BENCH_baseline.json (>25% drop on a gated metric fails the job).
class BenchJson {
 public:
  /// Duplicate names would emit duplicate JSON keys, which every parser
  /// downstream (compare_bench.py included) collapses last-wins - a silent
  /// drop of the first measurement. A bench emitting the same metric twice
  /// is a bug in the bench, so fail loudly here.
  void add(const std::string& name, double value) {
    for (const auto& [existing, v] : entries_) {
      (void)v;
      if (existing == name) {
        throw std::logic_error("BenchJson: duplicate metric name \"" + name + "\"");
      }
    }
    entries_.emplace_back(name, value);
  }

  /// Write to `path` when non-empty (the --json flag's argument).
  void save_if(const std::string& path) const {
    if (path.empty()) return;
    util::JsonWriter w;
    w.begin_object();
    for (const auto& [k, v] : entries_) w.kv(k, v);
    w.end_object();
    w.save(path);
    std::printf("\nwrote %zu metric(s) to %s\n", entries_.size(), path.c_str());
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

inline void print_header(const char* figure, const char* description) {
  std::printf("=====================================================================\n");
  std::printf("%s\n%s\n", figure, description);
  std::printf("=====================================================================\n\n");
}

}  // namespace reasched::bench
