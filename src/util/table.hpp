#pragma once

#include <string>
#include <vector>

namespace reasched::util {

/// ASCII table renderer used by bench/repro and the examples to print the
/// paper-style rows/series. Body cells that start with a digit (or a sign
/// and a digit) are right-aligned, everything else left-aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal rule before the next row.
  void add_rule();

  std::string render() const;

  /// Convenience formatting for numeric cells.
  static std::string num(double v, int precision = 3);
  static std::string ratio(double v);           ///< "1.234x"
  static std::string pct(double v);             ///< "12.3%"
  static std::string na();                      ///< "n/a" (e.g. 0/0 normalization)

 private:
  std::vector<std::string> header_;
  struct Row {
    std::vector<std::string> cells;
    bool rule_before = false;
  };
  std::vector<Row> rows_;
  bool pending_rule_ = false;
};

}  // namespace reasched::util
