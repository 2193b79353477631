#include "util/string_utils.hpp"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace reasched::util {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
char lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }
}  // namespace

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '\n') {
      std::string_view line = s.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      out.emplace_back(line);
      start = i + 1;
    }
  }
  if (!out.empty() && out.back().empty() && !s.empty() && s.back() == '\n') out.pop_back();
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

bool starts_with_icase(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (lower(s[i]) != lower(prefix[i])) return false;
  }
  return true;
}

std::optional<long long> parse_int(std::string_view s) {
  const std::string t = trim(s);
  if (t.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (errno != 0 || end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  const std::string t = trim(s);
  if (t.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  // ERANGE flags underflow too; only an overflow (HUGE_VAL) is refused.
  if ((errno != 0 && std::isinf(v)) || end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace reasched::util
