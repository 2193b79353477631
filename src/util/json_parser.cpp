#include "util/json_parser.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace reasched::util {

bool JsonValue::as_bool() const {
  if (!is_bool()) throw std::runtime_error("JsonValue: not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) throw std::runtime_error("JsonValue: not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw std::runtime_error("JsonValue: not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) throw std::runtime_error("JsonValue: not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) throw std::runtime_error("JsonValue: not an object");
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::runtime_error("JsonValue: missing key '" + key + "'");
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return is_object() && as_object().count(key) != 0;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw std::runtime_error("JsonValue: index out of range");
  return arr[index];
}

std::size_t JsonValue::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw std::runtime_error("JsonValue: size() on scalar");
}

bool JsonValue::empty() const { return size() == 0; }

std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  if (!contains(key)) return fallback;
  const auto& v = at(key);
  return v.is_string() ? v.as_string() : fallback;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  if (!contains(key)) return fallback;
  const auto& v = at(key);
  return v.is_number() ? v.as_number() : fallback;
}

std::optional<int> JsonValue::exact_int() const {
  if (!is_number()) return std::nullopt;
  const double d = std::get<double>(value_);
  // Both bounds are exact doubles, so the range test is exact; NaN fails it.
  constexpr double kMin = std::numeric_limits<int>::min();
  constexpr double kMax = std::numeric_limits<int>::max();
  if (!(d >= kMin && d <= kMax) || d != std::trunc(d)) return std::nullopt;
  return static_cast<int>(d);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(format("JSON parse error at offset %zu: %s", pos_, why.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the containers enclosing this value; each one recurses
  /// a level, so a container past kMaxJsonDepth is refused.
  JsonValue parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= kMaxJsonDepth) {
      fail(format("nesting deeper than %zu levels", kMaxJsonDepth));
    }
    switch (c) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      take();
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value(depth));
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue(std::move(obj));
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      take();
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth));
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const auto v = parse_double(token);
    if (!v) fail("malformed number '" + token + "'");
    return JsonValue(*v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace reasched::util
