#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace reasched::util {

/// Tiny command-line parser for examples and benches.
/// Accepts "--name=value", "--name value" and bare "--flag". A flag given
/// multiple times keeps every value in order (`get_all`); the single-value
/// getters return the last occurrence.
class CliArgs {
 public:
  /// Upper bound of the count getters: job ids and snapshot counts are ints.
  static constexpr int kMaxCount = std::numeric_limits<int>::max();

  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric getters: `fallback` when the flag is absent; a value that does
  /// not parse, is out of [min_value, max_value] or (for get_double) is not
  /// finite throws std::invalid_argument naming the flag and the value.
  long long get_int(const std::string& name, long long fallback,
                    long long min_value = std::numeric_limits<long long>::min(),
                    long long max_value = std::numeric_limits<long long>::max()) const;
  double get_double(const std::string& name, double fallback) const;
  /// A count: get_int bounded to [min_value, max_value], so a negative value
  /// is an error instead of wrapping to SIZE_MAX.
  std::size_t get_size(const std::string& name, std::size_t fallback, std::size_t min_value = 0,
                       std::size_t max_value = kMaxCount) const;
  /// A comma-separated list of counts in [1, kMaxCount] ("1000,10000"); an
  /// empty or out-of-range token is an error naming the flag.
  std::vector<std::size_t> get_sizes(const std::string& name,
                                     const std::vector<std::size_t>& fallback) const;

  /// Every value of a repeated flag, in command-line order (empty if absent).
  std::vector<std::string> get_all(const std::string& name) const;

  /// Throws std::invalid_argument naming the first --flag (in command-line
  /// order) that is not in `accepted`, and listing `accepted`.
  void reject_unlisted(const std::vector<std::string>& accepted) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  /// Every --name value pair in order, for get_all.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

/// The one front door of every executable: builds CliArgs, refuses any
/// --flag not named in `flags` (so a misspelt flag never runs the defaults),
/// calls `run` and returns its exit code. The refusal and any std::exception
/// escaping `run` become one "<program basename>: <message>" line on stderr
/// and exit code 1.
int run_main(int argc, const char* const* argv, const std::vector<std::string>& flags,
             const std::function<int(const CliArgs&)>& run);

}  // namespace reasched::util
