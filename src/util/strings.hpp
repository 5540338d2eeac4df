// strings.hpp — small string utilities shared by every MPH layer.
//
// The registration-file parser (src/mph/registry.cpp) is the main consumer:
// it needs whitespace-tolerant tokenization, comment stripping and strict
// numeric parsing with good error messages.  Every other text input of the
// repo (MINIMPI_* option strings, CLI flags, file names, whole files) goes
// through the same helpers.  Everything here is allocation light and
// exception free except where documented.
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mph::util {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on runs of ASCII whitespace; no empty tokens are produced.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single character delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

/// Strip an end-of-line comment.  Both Fortran-style `!` (used by the paper's
/// registration files) and shell-style `#` introduce comments.
[[nodiscard]] std::string_view strip_comment(std::string_view line) noexcept;

/// Case-insensitive ASCII equality (registry keywords are case-insensitive).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// True if `s` starts with `prefix` (exact case).
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// Strict integer parse: the whole token must be consumed.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;

/// Strict unsigned parse: digits only (no sign), the whole token consumed,
/// and the value within 64 bits.
[[nodiscard]] std::optional<unsigned long long> parse_uint(
    std::string_view s) noexcept;

/// A command-line flag's value as an integer in [lo, hi].  Throws
/// std::invalid_argument naming the flag otherwise, e.g.
/// "--top expects an integer in 1..N, got '2x'".
[[nodiscard]] unsigned long long parse_flag_uint(
    std::string_view flag, std::string_view text, unsigned long long lo = 0,
    unsigned long long hi = ~0ULL);

/// Strict floating-point parse: the whole token must be consumed.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parse booleans the way the paper's examples spell them: on/off,
/// true/false, yes/no, 1/0 (case-insensitive).
[[nodiscard]] std::optional<bool> parse_bool(std::string_view s) noexcept;

/// Join tokens with a separator; convenience for diagnostics.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// `"name=value"` → ("name","value"); returns nullopt when no '=' present
/// or the name part is empty.
[[nodiscard]] std::optional<std::pair<std::string_view, std::string_view>>
split_key_value(std::string_view token) noexcept;

/// One token of a MINIMPI_*-style option string: a bare flag ("on",
/// "nosocket") has no value; "key=value" splits at the first '='.
struct OptionToken {
  std::string_view key;
  std::optional<std::string_view> value;
};

/// Split a comma/space separated option string ("on,capacity=512 dir=x")
/// into tokens; empty tokens are dropped.
[[nodiscard]] std::vector<OptionToken> option_tokens(std::string_view text);

/// The one precedence rule of the MINIMPI_* variables: the tokens of the
/// environment variable `name`, applied on top of `options` with
/// `options.apply(text)` (a token that parses sets the field it names;
/// unknown keys and values that do not parse strictly are ignored).
template <class Options>
[[nodiscard]] Options apply_env_options(Options options, const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at job construction.
  if (const char* env = std::getenv(name)) options.apply(env);
  return options;
}

/// The whole contents of the file at `path`, or nullopt when it cannot be
/// opened.  Callers turn nullopt into their own error type.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Replace the file at `path` with `text`.  Throws std::runtime_error
/// "cannot write '<path>'" when the open or the final flush fails, so a
/// full disk (or /dev/full) is an error, not a silently empty file.
void write_file(const std::string& path, std::string_view text);

/// A valid component name-tag: nonempty, no whitespace, none of the
/// structural registry keywords, and not itself a key=value token.
[[nodiscard]] bool valid_component_name(std::string_view s) noexcept;

}  // namespace mph::util
