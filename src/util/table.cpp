#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/string_utils.hpp"

namespace reasched::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(Row{std::move(cells), pending_rule_});
  pending_rule_ = false;
}

void TextTable::add_rule() { pending_rule_ = true; }

namespace {
/// A body cell is numeric when it starts with a digit, or with a sign and a
/// digit: "12", "-0.5", "1.234x", "12.3%" and durations like "3m 4.1s" are
/// right-aligned together, while "n/a" and labels stay left-aligned.
bool looks_numeric(const std::string& s) {
  const std::size_t i = !s.empty() && (s[0] == '-' || s[0] == '+') ? 1 : 0;
  return i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0;
}
}  // namespace

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t i = 0; i < header_.size(); ++i) width[i] = header_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
      width[i] = std::max(width[i], r.cells[i].size());
    }
  }
  std::ostringstream os;
  auto rule = [&] {
    for (std::size_t i = 0; i < width.size(); ++i) {
      os << '+' << std::string(width[i] + 2, '-');
    }
    os << "+\n";
  };
  auto emit = [&](const std::vector<std::string>& cells, bool align_numeric) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : header_[i];
      const std::size_t pad = width[i] - c.size();
      os << "| ";
      if (align_numeric && looks_numeric(c)) {
        os << std::string(pad, ' ') << c;
      } else {
        os << c << std::string(pad, ' ');
      }
      os << ' ';
    }
    os << "|\n";
  };
  rule();
  emit(header_, false);
  rule();
  for (const auto& r : rows_) {
    if (r.rule_before) rule();
    emit(r.cells, true);
  }
  rule();
  return os.str();
}

std::string TextTable::num(double v, int precision) {
  return format("%.*f", precision, v);
}

std::string TextTable::ratio(double v) { return format("%.3fx", v); }

std::string TextTable::pct(double v) { return format("%.1f%%", v * 100.0); }

std::string TextTable::na() { return "n/a"; }

}  // namespace reasched::util
