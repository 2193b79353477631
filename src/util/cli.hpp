#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace reasched::util {

/// Tiny command-line parser for examples and benches.
/// Accepts "--name=value", "--name value" and bare "--flag". A flag given
/// multiple times keeps every value in order (`get_all`); the single-value
/// getters return the last occurrence.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric getters: `fallback` when the flag is absent; a value that does
  /// not parse (or, for get_double, is not finite) throws
  /// std::invalid_argument naming the flag and the value.
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Every value of a repeated flag, in command-line order (empty if absent).
  std::vector<std::string> get_all(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  /// Every --name value pair in order, for get_all.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

}  // namespace reasched::util
