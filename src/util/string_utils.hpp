#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace reasched::util {

/// Whitespace-trimming / splitting / case helpers shared by the CSV reader
/// and the LLM action parser (which must tolerate loosely formatted text).
std::string trim(std::string_view s);
std::vector<std::string> split(std::string_view s, char delim);
std::vector<std::string> split_lines(std::string_view s);
std::string to_lower(std::string_view s);
bool starts_with_icase(std::string_view s, std::string_view prefix);

/// Strict integer / double parsing (whole-string), returning nullopt on any
/// trailing garbage - the action parser depends on this strictness.
std::optional<long long> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Join with separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace reasched::util
