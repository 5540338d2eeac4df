#include "src/util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mph::util {

namespace {
[[nodiscard]] bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
[[nodiscard]] char lower(char c) noexcept {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_ws(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ws(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_ws(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_ws(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view strip_comment(std::string_view line) noexcept {
  const std::size_t pos = line.find_first_of("!#");
  if (pos != std::string_view::npos) line = line.substr(0, pos);
  return line;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<long long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<unsigned long long> parse_uint(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  unsigned long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

unsigned long long parse_flag_uint(std::string_view flag,
                                   std::string_view text,
                                   unsigned long long lo,
                                   unsigned long long hi) {
  const std::optional<unsigned long long> value = parse_uint(text);
  if (!value || *value < lo || *value > hi) {
    throw std::invalid_argument(std::string(flag) + " expects an integer in " +
                                std::to_string(lo) + ".." + std::to_string(hi) +
                                ", got '" + std::string(text) + "'");
  }
  return *value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<bool> parse_bool(std::string_view s) noexcept {
  s = trim(s);
  if (iequals(s, "on") || iequals(s, "true") || iequals(s, "yes") || s == "1")
    return true;
  if (iequals(s, "off") || iequals(s, "false") || iequals(s, "no") || s == "0")
    return false;
  return std::nullopt;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<std::pair<std::string_view, std::string_view>>
split_key_value(std::string_view token) noexcept {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return std::pair{token.substr(0, eq), token.substr(eq + 1)};
}

std::vector<OptionToken> option_tokens(std::string_view text) {
  std::vector<OptionToken> out;
  for (std::string_view token : split_ws(text)) {
    for (std::string_view part : split(token, ',')) {
      if (part.empty()) continue;
      if (const auto kv = split_key_value(part)) {
        out.push_back({kv->first, kv->second});
      } else {
        out.push_back({part, std::nullopt});
      }
    }
  }
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

bool valid_component_name(std::string_view s) noexcept {
  if (s.empty()) return false;
  for (char c : s) {
    if (is_ws(c) || c == '!' || c == '#' || c == '=') return false;
  }
  static constexpr std::string_view kReserved[] = {
      "BEGIN",
      "END",
      "Multi_Component_Begin",
      "Multi_Component_End",
      "Multi_Instance_Begin",
      "Multi_Instance_End",
  };
  for (std::string_view kw : kReserved) {
    if (iequals(s, kw)) return false;
  }
  return true;
}

}  // namespace mph::util
