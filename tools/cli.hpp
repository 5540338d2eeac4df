// cli.hpp — the pieces every verb of the `mph` driver shares: the flag
// reader, the input reader and the exit rule.  The verb table itself lives
// in mph.cpp; mph_racer reads its flags and inputs the same way (cli.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mph_tools {

/// The one exit rule, grep's: 0 clean, 1 the verb ran and found something
/// (findings, a failing schedule, lint hits, an invalid registry), 2 it
/// could not run.  Verbs return the first two; "could not run" is any
/// exception, which the driver reports and maps to 2.
enum class Outcome { clean = 0, found = 1 };

/// A verb's command line after the flag reader: positionals in order plus
/// every value given to each declared flag.  A token that starts with "--"
/// must be a declared flag; other tokens are positionals unless they name
/// a declared short flag (-o).
class Args {
 public:
  /// Read `argv` against `flags`: a name ending in '=' takes a value,
  /// given as `--flag value` or `--flag=value`; any other name is a
  /// switch.  Flags may repeat.  Throws std::invalid_argument (a usage
  /// error) on an undeclared flag or a missing value.
  Args(const std::vector<std::string>& argv,
       const std::vector<std::string_view>& flags);

  std::vector<std::string> positional;

  [[nodiscard]] bool has(std::string_view flag) const;
  /// Every value given to `flag`, in order.
  [[nodiscard]] std::vector<std::string> values(std::string_view flag) const;
  /// The last value given to `flag`, or `fallback`.
  [[nodiscard]] std::string value(std::string_view flag,
                                  std::string fallback = "") const;
  /// The last value of `flag` as an integer in [lo, hi] (through
  /// util::parse_flag_uint), or `fallback` when the flag is absent.
  [[nodiscard]] std::uint64_t number(std::string_view flag,
                                     std::uint64_t fallback,
                                     std::uint64_t lo = 0,
                                     std::uint64_t hi = UINT64_MAX) const;

 private:
  std::map<std::string, std::vector<std::string>, std::less<>> given_;
};

/// The contents of `path`; throws "cannot read '<path>'" (exit 2).
[[nodiscard]] std::string read_input(const std::string& path);

/// The verbs (one function per verb; grouped by what they read).
Outcome cmd_validate(const Args& args);
Outcome cmd_plan(const Args& args);
Outcome cmd_generate_ensemble(const Args& args);
Outcome cmd_check(const Args& args);
Outcome cmd_trace(const Args& args);
Outcome cmd_report(const Args& args);
Outcome cmd_annotate(const Args& args);
Outcome cmd_record(const Args& args);
Outcome cmd_conform(const Args& args);
Outcome cmd_infer(const Args& args);
Outcome cmd_top(const Args& args);
Outcome cmd_watch(const Args& args);
Outcome cmd_lint(const Args& args);
Outcome cmd_verify(const Args& args);

}  // namespace mph_tools
