// cli.cpp — the flag reader and input reader both command-line tools
// (`mph` and mph_racer) share; see cli.hpp.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/strings.hpp"
#include "tools/cli.hpp"

namespace mph_tools {

Args::Args(const std::vector<std::string>& argv,
           const std::vector<std::string_view>& flags) {
  const auto declared = [&](const std::string& name) {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  };
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (declared(name + "=")) {
      if (eq == std::string::npos && i + 1 >= argv.size()) {
        throw std::invalid_argument(name + " needs a value");
      }
      given_[name].push_back(eq == std::string::npos ? argv[++i]
                                                     : arg.substr(eq + 1));
    } else if (declared(arg)) {
      given_[arg];
    } else if (mph::util::starts_with(arg, "--")) {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else {
      positional.push_back(arg);
    }
  }
}

bool Args::has(std::string_view flag) const {
  return given_.find(flag) != given_.end();
}

std::vector<std::string> Args::values(std::string_view flag) const {
  const auto it = given_.find(flag);
  return it == given_.end() ? std::vector<std::string>{} : it->second;
}

std::string Args::value(std::string_view flag, std::string fallback) const {
  const auto it = given_.find(flag);
  return it == given_.end() ? std::move(fallback) : it->second.back();
}

std::uint64_t Args::number(std::string_view flag, std::uint64_t fallback,
                           std::uint64_t lo, std::uint64_t hi) const {
  const auto it = given_.find(flag);
  if (it == given_.end()) return fallback;
  return mph::util::parse_flag_uint(flag, it->second.back(), lo, hi);
}

std::string read_input(const std::string& path) {
  std::optional<std::string> text = mph::util::read_file(path);
  if (!text) throw std::runtime_error("cannot read '" + path + "'");
  return std::move(*text);
}

}  // namespace mph_tools
