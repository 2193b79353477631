#include "obs/runlog.hpp"

#include <cstdio>
#include <utility>

#include "util/csv.hpp"
#include "util/json_writer.hpp"

namespace reasched::obs {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void warn_sink_failed() {
  std::fputs("[WARN] run log sink failed; further rows are dropped (run output is unaffected)\n",
             stderr);
}

}  // namespace

CsvFileSink::CsvFileSink(std::string path) : path_(std::move(path)) {}

bool CsvFileSink::open(const std::vector<std::string>& columns) {
  out_.open(path_);
  if (!out_) return false;
  return append(columns);  // header row, same escaping rules as data rows
}

bool CsvFileSink::append(const std::vector<std::string>& values) {
  if (!out_) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << util::csv_escape(values[i]);
  }
  out_ << '\n';
  return static_cast<bool>(out_);
}

bool CsvFileSink::flush() {
  if (!out_) return false;
  out_.flush();
  return static_cast<bool>(out_);
}

JsonlFileSink::JsonlFileSink(std::string path) : path_(std::move(path)) {}

bool JsonlFileSink::open(const std::vector<std::string>& columns) {
  columns_ = columns;
  out_.open(path_);
  return static_cast<bool>(out_);
}

bool JsonlFileSink::append(const std::vector<std::string>& values) {
  if (!out_ || values.size() != columns_.size()) return false;
  util::JsonWriter w;
  w.begin_object();
  for (std::size_t i = 0; i < values.size(); ++i) w.kv(columns_[i], values[i]);
  w.end_object();
  out_ << w.str() << '\n';
  return static_cast<bool>(out_);
}

bool JsonlFileSink::flush() {
  if (!out_) return false;
  out_.flush();
  return static_cast<bool>(out_);
}

std::unique_ptr<RunLogSink> make_file_sink(const std::string& path) {
  if (ends_with(path, ".jsonl")) return std::make_unique<JsonlFileSink>(path);
  return std::make_unique<CsvFileSink>(path);
}

RunLog::RunLog(std::unique_ptr<RunLogSink> sink, std::vector<std::string> columns)
    : columns_(std::move(columns)), sink_(std::move(sink)) {}

RunLog::~RunLog() { flush(); }

bool RunLog::append(const std::vector<std::string>& values) {
  util::MutexLock lock(mu_);
  if (!failed_ && !opened_) {
    opened_ = true;
    if (sink_ == nullptr || !sink_->open(columns_)) {
      failed_ = true;
      warn_sink_failed();
    }
  }
  if (values.size() != columns_.size()) {
    ++dropped_;
    if (!mismatch_warned_) {
      mismatch_warned_ = true;
      std::fputs("[WARN] run log row dropped: column count mismatch (further mismatches are not "
                 "reported)\n",
                 stderr);
    }
    return false;
  }
  if (!failed_ && !sink_->append(values)) {
    failed_ = true;
    warn_sink_failed();
  }
  if (failed_) {
    ++dropped_;
    return false;
  }
  ++rows_;
  return true;
}

void RunLog::flush() {
  util::MutexLock lock(mu_);
  if (!failed_ && opened_ && sink_ != nullptr) sink_->flush();
}

std::size_t RunLog::rows() const {
  util::MutexLock lock(mu_);
  return rows_;
}

std::size_t RunLog::dropped() const {
  util::MutexLock lock(mu_);
  return dropped_;
}

}  // namespace reasched::obs
