#pragma once

// Shared helpers for the figure benches: results directory resolution and
// latency-summary formatting.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace reasched::bench {

/// Directory for CSV outputs; created on demand. Override with the
/// REASCHED_RESULTS_DIR environment variable.
inline std::string results_dir() {
  const char* env = std::getenv("REASCHED_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

inline std::string results_path(const std::string& filename) {
  return results_dir() + "/" + filename;
}

/// One row of latency-distribution statistics (Figures 5-6, right panels).
inline std::vector<std::string> latency_stat_cells(const std::vector<double>& xs) {
  const auto box = util::box_stats(xs);
  return {util::TextTable::num(util::mean(xs), 1), util::TextTable::num(box.median, 1),
          util::TextTable::num(util::quantile(xs, 0.95), 1),
          util::TextTable::num(box.max, 1), std::to_string(box.outliers.size())};
}

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
