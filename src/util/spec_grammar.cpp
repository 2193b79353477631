#include "util/spec_grammar.hpp"

#include <cmath>
#include <optional>

#include "util/string_utils.hpp"

namespace reasched::util {

namespace {

constexpr const char* kReservedValueChars = "%&=?|(),";

bool is_reserved_value_char(char c) {
  for (const char* p = kReservedValueChars; *p != '\0'; ++p) {
    if (*p == c) return true;
  }
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool valid_spec_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == ':' || c == '_' || c == '.' ||
         c == '-';
}

bool valid_spec_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

/// Decode `%XX` escapes; `context` names the offending spec in errors.
std::string percent_decode(std::string_view s, std::string_view context) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const int hi = i + 1 < s.size() ? hex_digit(s[i + 1]) : -1;
    const int lo = i + 2 < s.size() ? hex_digit(s[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      throw SpecError("invalid percent-escape in '" + std::string(context) +
                      "' (expected %XX with two hex digits)");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

/// Encode the grammar's reserved characters (see spec_grammar.hpp) so a
/// value containing them survives the stage/pipeline/mix separators.
std::string percent_encode_value(std::string_view s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (is_reserved_value_char(c)) {
      out += '%';
      out += hex[static_cast<unsigned char>(c) >> 4];
      out += hex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

SpecStage parse_spec_stage(std::string_view s_in, std::string_view kind) {
  const std::string s = trim(s_in);
  const std::string k(kind);
  if (s.empty()) throw SpecError(k + " spec is empty");

  SpecStage out;
  const auto q = s.find('?');
  out.name = s.substr(0, q);
  if (out.name.empty()) {
    throw SpecError(k + " spec '" + s + "' has no name before '?'");
  }
  for (const char c : out.name) {
    if (!valid_spec_name_char(c)) {
      throw SpecError(k + " name '" + out.name + "' contains invalid character '" +
                      std::string(1, c) + "' (allowed: a-z 0-9 : _ . -)");
    }
  }
  if (q == std::string::npos) return out;

  const std::string param_str = s.substr(q + 1);
  if (param_str.empty()) {
    throw SpecError(k + " spec '" + s + "' has '?' but no parameters");
  }
  for (const std::string& kv : split(param_str, '&')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
      throw SpecError("parameter '" + kv + "' in spec '" + s + "' is not of the form key=value");
    }
    const std::string key = kv.substr(0, eq);
    for (const char c : key) {
      if (!valid_spec_key_char(c)) {
        throw SpecError("parameter key '" + key + "' in spec '" + s +
                        "' contains invalid character '" + std::string(1, c) +
                        "' (allowed: a-z 0-9 _)");
      }
    }
    const std::string value = percent_decode(kv.substr(eq + 1), s);
    if (!out.params.emplace(key, value).second) {
      throw SpecError("duplicate parameter '" + key + "' in spec '" + s + "'");
    }
  }
  return out;
}

std::string SpecStage::to_string() const {
  if (params.empty()) return name;
  std::string out = name;
  char sep = '?';
  for (const auto& [key, value] : params) {  // std::map: sorted, canonical
    out += sep;
    out += key;
    out += '=';
    out += percent_encode_value(value);
    sep = '&';
  }
  return out;
}

const std::string* SpecStage::find_param(const std::string& key) const {
  const auto it = params.find(key);
  return it == params.end() ? nullptr : &it->second;
}

std::vector<std::string> split_outside_parens(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (const char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == delim && depth == 0) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

void SpecParamReader::fail(const std::string& key, const std::string& problem) const {
  const std::string* v = stage_->find_param(key);
  throw SpecError(std::string(kind_) + " '" + stage_->name + "': parameter '" + key + "' " +
                  problem + ", got '" + (v ? *v : "") + "'");
}

long long SpecParamReader::get_int(const std::string& key, long long fallback,
                                   long long min_value, long long max_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const auto parsed = parse_int(*v);
  if (!parsed) fail(key, "expects an integer");
  if (*parsed < min_value || *parsed > max_value) {
    fail(key, "must be in [" + std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  }
  return *parsed;
}

double SpecParamReader::get_double(const std::string& key, double fallback, double min_value,
                                   double max_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const auto parsed = parse_double(*v);
  // NaN compares false against both bounds, so finiteness is checked first.
  if (!parsed || !std::isfinite(*parsed) || *parsed < min_value || *parsed > max_value) {
    fail(key, format("expects a number in [%g, %g]", min_value, max_value));
  }
  return *parsed;
}

bool SpecParamReader::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "off") return false;
  fail(key, "expects a boolean (true/false/1/0/on/off)");
}

std::string SpecParamReader::require_string(const std::string& key) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr || v->empty()) {
    throw SpecError(std::string(kind_) + " '" + stage_->name + "': required parameter '" + key +
                    "' is missing");
  }
  return *v;
}

std::pair<double, double> SpecParamReader::get_range(const std::string& key, double fallback_min,
                                                     double fallback_max, double min_value) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return {fallback_min, fallback_max};
  const auto parts = split(*v, ':');
  std::optional<double> lo, hi;
  if (parts.size() == 1) {
    lo = hi = parse_double(parts[0]);
  } else if (parts.size() == 2) {
    lo = parse_double(parts[0]);
    hi = parse_double(parts[1]);
  }
  if (!lo || !hi || !std::isfinite(*lo) || !std::isfinite(*hi) || *lo < min_value ||
      *hi < *lo) {
    fail(key, format("expects MIN:MAX with %g <= MIN <= MAX", min_value));
  }
  return {*lo, *hi};
}

double SpecParamReader::get_duration(const std::string& key, double fallback) const {
  const std::string* v = stage_->find_param(key);
  if (v == nullptr) return fallback;
  std::string num = *v;
  double scale = 1.0;
  if (!num.empty()) {
    switch (num.back()) {
      case 's': scale = 1.0; num.pop_back(); break;
      case 'm': scale = 60.0; num.pop_back(); break;
      case 'h': scale = 3600.0; num.pop_back(); break;
      case 'd': scale = 86400.0; num.pop_back(); break;
      default: break;
    }
  }
  const auto parsed = parse_double(num);
  // The unit scale can overflow a finite count (`1e308d`), so the product is checked.
  if (!parsed || *parsed < 0.0 || !std::isfinite(*parsed * scale)) {
    fail(key, "expects a duration (seconds, or with s/m/h/d suffix)");
  }
  return *parsed * scale;
}

}  // namespace reasched::util
