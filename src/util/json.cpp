#include "src/util/json.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/util/strings.hpp"

namespace mph::util {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

}  // namespace

/// Recursive-descent parser over a string_view; tracks the byte offset so
/// errors point at the offending input.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Report line:column, not a byte offset: the documents this parser is
    // pointed at (trace exports, contract conformance inputs) are multi-line
    // and a byte offset is unactionable in an editor.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::runtime_error("json: " + what + " at line " +
                             std::to_string(line) + ", column " +
                             std::to_string(column));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (const char c = peek()) {
      case '{':
      case '[': {
        // One recursion frame per level: an unbounded depth would overflow
        // the stack instead of failing with a position.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::string;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type_ = JsonValue::Type::boolean;
        if (consume_literal("true")) {
          v.bool_ = true;
        } else if (consume_literal("false")) {
          v.bool_ = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += decode_unicode_escape(); break;
        default: fail("bad escape character");
      }
    }
  }

  std::string decode_unicode_escape() {
    const unsigned code = parse_hex4();
    // Encode the BMP code point as UTF-8.  Surrogate pairs (rare in our own
    // output, which never emits them) are passed through as two 3-byte
    // sequences rather than rejected.
    std::string out;
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
    return out;
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    JsonValue v;
    v.type_ = JsonValue::Type::number;
    v.number_ = value;
    v.string_ = std::move(token);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::boolean) type_error("a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::number) type_error("a number");
  return number_;
}

long long JsonValue::as_int() const {
  const double value = as_number();
  if (const std::optional<long long> exact = parse_int(string_)) return *exact;
  constexpr double kLimit = 0x1p63;  // first double past LLONG_MAX
  if (!(value >= -kLimit && value < kLimit)) {
    type_error("an integer in range");
  }
  return static_cast<long long>(value);
}

unsigned long long JsonValue::as_uint() const {
  const double value = as_number();
  if (const auto exact = parse_uint(string_)) return *exact;
  constexpr double kLimit = 0x1p64;  // first double past ULLONG_MAX
  if (!(value >= 0.0 && value < kLimit)) {
    type_error("an unsigned integer in range");
  }
  return static_cast<unsigned long long>(value);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::string) type_error("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::array) type_error("an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::object) type_error("an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *value;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const std::vector<JsonValue>& arr = items();
  if (index >= arr.size()) {
    throw std::runtime_error("json: index " + std::to_string(index) +
                             " out of range (size " +
                             std::to_string(arr.size()) + ")");
  }
  return arr[index];
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

std::string json_quoted(std::string_view text) {
  std::string out = "\"";
  append_json_escaped(out, text);
  return out + "\"";
}

}  // namespace mph::util
