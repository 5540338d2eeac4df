// json.hpp — a minimal read-only JSON parser, plus the string escaping every
// JSON writer in the repo shares.
//
// Just enough JSON to consume the files this repo itself produces — the
// mph_trace Chrome-trace export (TraceReport::to_chrome_json) and the
// Google Benchmark `--json` reporter output — without adding a third-party
// dependency.  Full JSON value model (null/bool/number/string/array/
// object), UTF-8 passed through verbatim, \uXXXX escapes decoded for the
// BMP.  Not a validator of last resort: numbers are parsed with strtod
// (each keeps its source text, so integers read back exactly), object keys
// keep their insertion order (duplicates keep the first), and nesting is
// capped at kMaxJsonDepth.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mph::util {

/// Deepest array/object nesting JsonValue::parse accepts: far above what
/// any writer in the repo produces (under 10), far below what would
/// exhaust a thread's stack.
inline constexpr int kMaxJsonDepth = 512;

/// An immutable parsed JSON value.
class JsonValue {
 public:
  enum class Type { null, boolean, number, string, array, object };

  /// Parse a complete JSON document.  Throws std::runtime_error (naming the
  /// line and column) on malformed input or trailing garbage.
  static JsonValue parse(std::string_view text);

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }

  /// Typed accessors; each throws std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number as an integer: exact when its source text is an integer
  /// (so 64-bit seeds survive), otherwise as_number() truncated.  Throws
  /// when the value is not representable.
  [[nodiscard]] long long as_int() const;
  /// as_int() for unsigned values up to 2^64-1; negatives throw.
  [[nodiscard]] unsigned long long as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

  /// Object lookup: nullptr when `this` is not an object or lacks `key`.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Object lookup that throws std::runtime_error when the key is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// Array element; throws on out-of-range or non-array.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

 private:
  friend class JsonParser;

  Type type_ = Type::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< string value, or a number's source text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Append `text` to `out` as the body of a JSON string: quote, backslash
/// and control characters escaped, everything else (UTF-8) verbatim.
void append_json_escaped(std::string& out, std::string_view text);

/// `text` as a complete JSON string, quotes included.
[[nodiscard]] std::string json_quoted(std::string_view text);

}  // namespace mph::util
