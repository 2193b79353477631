#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace reasched::util {

/// Minimal JSON document model + recursive-descent parser. Exists so the
/// HTTP LLM-client scaffold (llm/http_client) can decode real provider
/// responses (Anthropic messages / OpenAI chat completions) without an
/// external dependency. Supports the full JSON grammar except \uXXXX
/// surrogate pairs outside the BMP (escapes decode to UTF-8).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access; throws on non-objects / missing keys.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  /// Object field lookup without throwing: nullptr on non-objects and
  /// missing keys.
  const JsonValue* find(const std::string& key) const;
  /// Array element access; throws on non-arrays / out of range.
  const JsonValue& at(std::size_t index) const;
  std::size_t size() const;
  /// True when an array/object has no elements; throws on scalars (same
  /// contract as size(), and what readability-container-size-empty expects).
  bool empty() const;

  /// Lookup with fallback: returns `fallback` when the path is absent or of
  /// the wrong type (never throws). Convenient for optional provider fields.
  std::string string_or(const std::string& key, const std::string& fallback) const;

  /// The number as an int when it is integral and within int's range;
  /// nullopt otherwise (non-numbers included). Casting an out-of-range
  /// double to int is undefined behaviour, so integer fields read from
  /// untrusted JSON go through here.
  std::optional<int> exact_int() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Deepest container nesting parse_json accepts. The parser recurses once
/// per level, so without a limit one line of 50,000 '[' overflows the stack;
/// real documents (protocol requests, snapshots, provider responses) nest a
/// handful of levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error with position information on malformed input,
/// including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace reasched::util
