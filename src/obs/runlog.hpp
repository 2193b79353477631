#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace reasched::obs {

/// Destination for streamed run-log rows. The front-end (RunLog) owns
/// ordering and error policy; sinks only format and write - the same split
/// gacspp draws between COutput (the streaming front-end) and IDatabase
/// (the pluggable backend), per ROADMAP item 5. All methods return false on
/// IO failure instead of throwing: a dying sink must not take the run down.
class RunLogSink {
 public:
  virtual ~RunLogSink() = default;

  /// Called once, before any append, with the column names.
  virtual bool open(const std::vector<std::string>& columns) = 0;
  /// One row; `values` matches the open() columns positionally.
  virtual bool append(const std::vector<std::string>& values) = 0;
  virtual bool flush() = 0;
};

/// Columnar CSV file: header row from open(), csv-escaped cells.
class CsvFileSink : public RunLogSink {
 public:
  explicit CsvFileSink(std::string path);
  bool open(const std::vector<std::string>& columns) override;
  bool append(const std::vector<std::string>& values) override;
  bool flush() override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// JSON-lines file: one object per row, keys from the open() columns.
/// Values are emitted as JSON strings - the run log is a transport, the
/// reader applies types (CSV consumers already make the same call).
class JsonlFileSink : public RunLogSink {
 public:
  explicit JsonlFileSink(std::string path);
  bool open(const std::vector<std::string>& columns) override;
  bool append(const std::vector<std::string>& values) override;
  bool flush() override;

 private:
  std::string path_;
  std::vector<std::string> columns_;
  std::ofstream out_;
};

/// File sink chosen by extension: ".jsonl" -> JsonlFileSink, else CSV.
std::unique_ptr<RunLogSink> make_file_sink(const std::string& path);

/// Append-only streaming run log: rows go to the sink as they are produced
/// (sweep cells, completed service jobs), so nothing accumulates a full
/// result grid in memory. Thread-safe - run_sweep_streaming's on_cell hook
/// fires from worker threads. A failing sink degrades, never escalates:
/// rows are counted as dropped, and stderr gets at most one warning per log
/// for a failed sink and one for column-count mismatches; the run itself is
/// unaffected.
class RunLog {
 public:
  RunLog(std::unique_ptr<RunLogSink> sink, std::vector<std::string> columns);
  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;
  ~RunLog();

  /// Write one row. Returns false (and counts a drop) on sink failure or a
  /// column-count mismatch.
  bool append(const std::vector<std::string>& values);
  void flush();

  const std::vector<std::string>& columns() const { return columns_; }
  std::size_t rows() const;
  std::size_t dropped() const;

 private:
  std::vector<std::string> columns_;
  mutable util::Mutex mu_;
  std::unique_ptr<RunLogSink> sink_ GUARDED_BY(mu_);
  bool opened_ GUARDED_BY(mu_) = false;
  bool failed_ GUARDED_BY(mu_) = false;
  bool mismatch_warned_ GUARDED_BY(mu_) = false;
  std::size_t rows_ GUARDED_BY(mu_) = 0;
  std::size_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace reasched::obs
