#include "src/mph/registry.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/mph/errors.hpp"
#include "src/util/strings.hpp"

namespace mph {

namespace u = util;

int ExecutableBlock::required_size() const noexcept {
  int max_high = -1;
  for (const ComponentEntry& c : components) {
    if (c.has_range()) max_high = std::max(max_high, c.high);
  }
  return max_high + 1;  // 0 when no component carries a range
}

std::vector<std::string> ExecutableBlock::names() const {
  std::vector<std::string> result;
  result.reserve(components.size());
  for (const ComponentEntry& c : components) result.push_back(c.name);
  return result;
}

namespace {

/// Parse one component line: `name [low high] [arg tokens...]`.
ComponentEntry parse_component_line(const std::vector<std::string_view>& tokens,
                                    int line, bool range_required) {
  ComponentEntry entry;
  entry.line = line;
  entry.name = std::string(tokens[0]);
  if (!u::valid_component_name(entry.name)) {
    throw RegistryError(line, "invalid component name '" + entry.name + "'");
  }

  std::size_t next = 1;
  const bool has_range =
      tokens.size() >= 3 && u::parse_int(tokens[1]).has_value() &&
      u::parse_int(tokens[2]).has_value();
  if (has_range) {
    entry.low = static_cast<int>(*u::parse_int(tokens[1]));
    entry.high = static_cast<int>(*u::parse_int(tokens[2]));
    if (entry.low < 0 || entry.high < entry.low) {
      throw RegistryError(line, "bad processor range " +
                                    std::to_string(entry.low) + " " +
                                    std::to_string(entry.high) +
                                    " for component '" + entry.name + "'");
    }
    next = 3;
  } else if (range_required) {
    throw RegistryError(line,
                        "component '" + entry.name +
                            "' inside a block requires a processor range "
                            "(low high)");
  }

  std::vector<std::string> arg_tokens;
  for (std::size_t i = next; i < tokens.size(); ++i) {
    arg_tokens.emplace_back(tokens[i]);
  }
  if (static_cast<int>(arg_tokens.size()) > Registry::kMaxArgumentTokens) {
    throw RegistryError(
        line, "component '" + entry.name + "' carries " +
                  std::to_string(arg_tokens.size()) +
                  " argument tokens; at most " +
                  std::to_string(Registry::kMaxArgumentTokens) +
                  " character strings may be appended to a line");
  }
  try {
    entry.args = ArgumentSet::from_tokens(arg_tokens);
  } catch (const ArgumentError& e) {
    throw RegistryError(line, e.what());
  }
  return entry;
}

/// Validate a completed block and append it.
void finish_block(std::vector<ExecutableBlock>& blocks, ExecutableBlock block) {
  if (block.components.empty()) {
    throw RegistryError(block.line, std::string(block_kind_name(block.kind)) +
                                        " executable declares no components");
  }
  // §4.4: "There is no limit of the number of instances" — the 10-component
  // ceiling applies to multi-component executables only.
  if (block.kind != BlockKind::multi_instance &&
      static_cast<int>(block.components.size()) >
          Registry::kMaxComponentsPerExecutable) {
    throw RegistryError(
        block.line,
        std::string(block_kind_name(block.kind)) + " executable declares " +
            std::to_string(block.components.size()) +
            " components; each executable could contain up to " +
            std::to_string(Registry::kMaxComponentsPerExecutable));
  }
  if (block.kind == BlockKind::multi_instance) {
    // Instances must tile the executable contiguously from 0: the paper's
    // registration files list Ocean1 0 15 / Ocean2 16 31 / Ocean3 32 47.
    std::vector<ComponentEntry> sorted = block.components;
    std::sort(sorted.begin(), sorted.end(),
              [](const ComponentEntry& a, const ComponentEntry& b) {
                return a.low < b.low;
              });
    int expected_low = 0;
    for (const ComponentEntry& c : sorted) {
      if (c.low != expected_low) {
        throw RegistryError(
            c.line, "instance '" + c.name + "' starts at processor " +
                        std::to_string(c.low) + " but " +
                        std::to_string(expected_low) +
                        " was expected: instances must tile the executable "
                        "contiguously without gaps or overlap");
      }
      expected_low = c.high + 1;
    }
  }
  blocks.push_back(std::move(block));
}

}  // namespace

Registry Registry::parse(std::string_view text) {
  enum class Where { before_begin, top_level, in_block, after_end };

  Registry registry;
  Where where = Where::before_begin;
  ExecutableBlock current;
  int line_no = 0;

  std::string_view rest = text;
  while (!rest.empty() || line_no == 0) {
    std::string_view line;
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      line = rest;
      rest = {};
    } else {
      line = rest.substr(0, nl);
      rest.remove_prefix(nl + 1);
    }
    ++line_no;
    line = u::trim(u::strip_comment(line));
    if (line.empty()) {
      if (rest.empty()) break;
      continue;
    }

    const std::vector<std::string_view> tokens = u::split_ws(line);
    const std::string_view head = tokens[0];

    if (u::iequals(head, "BEGIN")) {
      if (where != Where::before_begin) {
        throw RegistryError(line_no, "unexpected BEGIN");
      }
      where = Where::top_level;
      continue;
    }
    if (where == Where::before_begin) {
      throw RegistryError(line_no,
                          "registration file must start with BEGIN");
    }
    if (where == Where::after_end) {
      throw RegistryError(line_no, "content after END");
    }

    if (u::iequals(head, "END")) {
      if (where == Where::in_block) {
        throw RegistryError(line_no, "END inside an unterminated " +
                                         std::string(block_kind_name(
                                             current.kind)) +
                                         " block");
      }
      where = Where::after_end;
      continue;
    }

    if (u::iequals(head, "Multi_Component_Begin") ||
        u::iequals(head, "Multi_Instance_Begin")) {
      if (where == Where::in_block) {
        throw RegistryError(line_no, "nested executable blocks");
      }
      current = ExecutableBlock{};
      current.kind = u::iequals(head, "Multi_Component_Begin")
                         ? BlockKind::multi_component
                         : BlockKind::multi_instance;
      current.line = line_no;
      where = Where::in_block;
      continue;
    }

    if (u::iequals(head, "Multi_Component_End") ||
        u::iequals(head, "Multi_Instance_End")) {
      const BlockKind closing = u::iequals(head, "Multi_Component_End")
                                    ? BlockKind::multi_component
                                    : BlockKind::multi_instance;
      if (where != Where::in_block || current.kind != closing) {
        throw RegistryError(line_no, "unmatched " + std::string(head));
      }
      finish_block(registry.blocks_, std::move(current));
      current = ExecutableBlock{};
      where = Where::top_level;
      continue;
    }

    // A component line.
    if (where == Where::in_block) {
      current.components.push_back(
          parse_component_line(tokens, line_no, /*range_required=*/true));
    } else {
      // A bare line at top level is a single-component executable; an
      // optional range asserts the executable's size.
      ExecutableBlock single;
      single.kind = BlockKind::single;
      single.line = line_no;
      single.components.push_back(
          parse_component_line(tokens, line_no, /*range_required=*/false));
      finish_block(registry.blocks_, std::move(single));
    }
  }

  if (where == Where::before_begin) {
    throw RegistryError(1, "empty registration file (missing BEGIN)");
  }
  if (where == Where::in_block) {
    throw RegistryError(
        line_no, "unterminated " +
                     std::string(block_kind_name(current.kind)) + " block");
  }
  if (where == Where::top_level) {
    throw RegistryError(line_no, "missing END");
  }
  if (registry.blocks_.empty()) {
    throw RegistryError(line_no, "registration file declares no components");
  }

  // Component names must be globally unique: they are the identifiers the
  // whole handshake keys on.
  std::set<std::string, std::less<>> seen;
  for (const ExecutableBlock& block : registry.blocks_) {
    for (const ComponentEntry& c : block.components) {
      if (!seen.insert(c.name).second) {
        throw RegistryError(c.line,
                            "duplicate component name '" + c.name + "'");
      }
    }
  }
  return registry;
}

int Registry::total_components() const noexcept {
  int total = 0;
  for (const ExecutableBlock& block : blocks_) {
    total += static_cast<int>(block.components.size());
  }
  return total;
}

bool Registry::has_component(std::string_view name) const noexcept {
  for (const ExecutableBlock& block : blocks_) {
    for (const ComponentEntry& c : block.components) {
      if (c.name == name) return true;
    }
  }
  return false;
}

std::string Registry::to_text(const std::vector<ExecutableBlock>& blocks) {
  std::ostringstream out;
  out << "BEGIN\n";
  for (const ExecutableBlock& block : blocks) {
    if (block.kind == BlockKind::multi_component) {
      out << "Multi_Component_Begin\n";
    } else if (block.kind == BlockKind::multi_instance) {
      out << "Multi_Instance_Begin\n";
    }
    for (const ComponentEntry& c : block.components) {
      out << c.name;
      if (c.has_range()) out << ' ' << c.low << ' ' << c.high;
      for (const std::string& token : c.args.to_tokens()) out << ' ' << token;
      out << '\n';
    }
    if (block.kind == BlockKind::multi_component) {
      out << "Multi_Component_End\n";
    } else if (block.kind == BlockKind::multi_instance) {
      out << "Multi_Instance_End\n";
    }
  }
  out << "END\n";
  return out.str();
}

}  // namespace mph
