// The `mph` verbs that read registration files and contracts: validate,
// plan, generate-ensemble and check.
#include <climits>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/mph/builder.hpp"
#include "src/mph/errors.hpp"
#include "src/mph/layout.hpp"
#include "src/mph/registry.hpp"
#include "src/proto/checker.hpp"
#include "src/proto/contract.hpp"
#include "src/proto/parser.hpp"
#include "src/util/strings.hpp"
#include "tools/cli.hpp"

namespace mph_tools {

namespace {

/// Parse "a,b:4" or "I:Ocean:12" into a PlannedExecutable.
mph::PlannedExecutable parse_exec_spec(const std::string& spec) {
  mph::PlannedExecutable exec;
  std::string_view rest = spec;
  if (mph::util::starts_with(rest, "I:")) {
    exec.is_instance = true;
    rest.remove_prefix(2);
  }
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string_view::npos) {
    throw std::invalid_argument("bad executable spec '" + spec +
                                "' (expected names:<nprocs>)");
  }
  exec.nprocs = static_cast<int>(
      mph::util::parse_flag_uint("<nprocs>", rest.substr(colon + 1), 1,
                                 INT_MAX));
  for (std::string_view name : mph::util::split(rest.substr(0, colon), ',')) {
    exec.names.emplace_back(name);
  }
  if (exec.names.empty() || exec.names.front().empty()) {
    throw std::invalid_argument("no component names in '" + spec + "'");
  }
  return exec;
}

std::string describe(const mph::ComponentEntry& c) {
  std::string out = "'" + c.name + "'";
  if (c.has_range()) {
    out += " (" + std::to_string(c.low) + ".." + std::to_string(c.high) + ")";
  }
  return out;
}

/// Lint one parsed registry: overlapping rank ranges (an error for
/// Multi_Instance siblings, a warning for Multi_Component overlap),
/// `contract=<file>` pins naming a missing or unparseable contract (error)
/// or one that never declares the component (warning), and processors no
/// component can reach (error).  Duplicate names and broken structure are
/// parse errors, reported by the caller.
void lint_registry(
    const std::string& path, const mph::Registry& registry,
    const std::function<void(bool, const std::string&)>& finding) {
  for (const mph::ExecutableBlock& block : registry.blocks()) {
    const char* kind = mph::block_kind_name(block.kind);

    // Multi_Instance members must be disjoint (each instance owns its
    // processors exclusively); Multi_Component overlap is legal by the
    // paper's §4.2 embedded-component layout but worth a warning.
    for (std::size_t i = 0; i < block.components.size(); ++i) {
      const mph::ComponentEntry& a = block.components[i];
      if (!a.has_range()) continue;
      for (std::size_t j = i + 1; j < block.components.size(); ++j) {
        const mph::ComponentEntry& b = block.components[j];
        if (!b.has_range()) continue;
        if (a.low <= b.high && b.low <= a.high) {
          const bool is_error = block.kind == mph::BlockKind::multi_instance;
          finding(is_error,
                  std::string(kind) + " entries " + describe(a) + " and " +
                      describe(b) + " claim overlapping processors" +
                      (is_error ? "" : " (legal for embedded components — "
                                       "verify this is intended)"));
        }
      }
    }

    // Relative contract paths resolve against the registry's directory.
    // A contract that cannot be loaded would fail every pinned executable
    // at registration time.
    for (const mph::ComponentEntry& c : block.components) {
      std::string contract_path;
      if (!c.args.get("contract", contract_path)) continue;
      std::filesystem::path resolved(contract_path);
      if (resolved.is_relative()) {
        resolved = std::filesystem::path(path).parent_path() / resolved;
      }
      try {
        const mph::proto::Contract contract =
            mph::proto::load_contract(resolved.string());
        if (contract.find_component(c.name) == nullptr) {
          finding(false, "component " + describe(c) + " pins contract '" +
                             contract_path + "' (contract '" + contract.name +
                             "') which never declares a component named '" +
                             c.name + "'");
        }
      } catch (const std::exception& e) {
        finding(true, "component " + describe(c) + " pins contract '" +
                          contract_path +
                          "' which cannot be loaded: " + e.what());
      }
    }

    // Processors a launcher must provide but nothing can ever address.
    const int size = block.required_size();
    if (size <= 0) continue;
    std::vector<bool> covered(static_cast<std::size_t>(size), false);
    for (const mph::ComponentEntry& c : block.components) {
      if (!c.has_range()) continue;
      for (int p = c.low; p <= c.high && p < size; ++p) {
        covered[static_cast<std::size_t>(p)] = true;
      }
    }
    for (int p = 0; p < size; ++p) {
      if (covered[static_cast<std::size_t>(p)]) continue;
      int q = p;
      while (q + 1 < size && !covered[static_cast<std::size_t>(q) + 1]) ++q;
      finding(true, "processors " + std::to_string(p) + ".." +
                        std::to_string(q) + " of a " + kind +
                        " executable of size " + std::to_string(size) +
                        " are unreachable (no component claims them)");
      p = q;
    }
  }
}

/// Check one registry file; returns its error count (warnings only print).
std::size_t check_registry(const std::string& path) {
  const std::string text = read_input(path);
  int errors = 0;
  int warnings = 0;
  const auto finding = [&](bool is_error, const std::string& message) {
    std::printf("%s: %s: %s\n", path.c_str(), is_error ? "error" : "warning",
                message.c_str());
    (is_error ? errors : warnings) += 1;
  };
  try {
    lint_registry(path, mph::Registry::parse(text), finding);
  } catch (const std::exception& e) {
    // The parser already rejects duplicate component names, malformed
    // ranges, and broken block structure; those are findings too.
    finding(true, e.what());
  }
  std::printf("%s: %d error(s), %d warning(s)\n", path.c_str(), errors,
              warnings);
  return static_cast<std::size_t>(errors);
}

/// Check one contract file; returns its finding count.
std::size_t check_contract(const std::string& path,
                           const std::string& dump_graph) {
  const mph::proto::Contract contract = mph::proto::load_contract(path);
  const mph::proto::ProtoReport report = mph::proto::check(contract);
  if (report.clean()) {
    std::printf("%s: contract '%s' OK (%d component(s), %zu proto(s))\n",
                path.c_str(), contract.name.c_str(),
                static_cast<int>(contract.components.size()),
                contract.protos.size());
  } else {
    std::printf("%s: contract '%s' FAILED — %zu finding(s)\n%s", path.c_str(),
                contract.name.c_str(), report.total(),
                report.to_string().c_str());
  }
  if (!dump_graph.empty()) {
    mph::util::write_file(dump_graph,
                          mph::proto::dump_causality_dot(contract));
    std::printf("happens-before graph written to %s\n", dump_graph.c_str());
  }
  return report.total();
}

}  // namespace

Outcome cmd_validate(const Args& args) {
  const std::string& path = args.positional[0];
  mph::Registry registry;
  try {
    registry = mph::Registry::parse(read_input(path));
  } catch (const mph::MphError& e) {  // an invalid registry
    std::fprintf(stderr, "mph validate: %s\n", e.what());
    return Outcome::found;
  }
  std::printf("%s: OK — %d executable entr%s, %d component%s\n", path.c_str(),
              registry.num_executables(),
              registry.num_executables() == 1 ? "y" : "ies",
              registry.total_components(),
              registry.total_components() == 1 ? "" : "s");
  for (const mph::ExecutableBlock& block : registry.blocks()) {
    std::printf("  [%s]%s\n", mph::block_kind_name(block.kind),
                block.required_size() > 0
                    ? (" " + std::to_string(block.required_size()) +
                       " processors")
                          .c_str()
                    : " size from launcher");
    for (const mph::ComponentEntry& c : block.components) {
      std::printf("    %-16s", c.name.c_str());
      if (c.has_range()) std::printf(" %d..%d", c.low, c.high);
      for (const std::string& token : c.args.to_tokens()) {
        std::printf(" %s", token.c_str());
      }
      std::printf("\n");
    }
  }
  return Outcome::clean;
}

Outcome cmd_plan(const Args& args) {
  const std::string text = read_input(args.positional[0]);
  std::vector<mph::PlannedExecutable> job;
  int total = 0;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    job.push_back(parse_exec_spec(args.positional[i]));
    total += job.back().nprocs;
  }
  try {
    const mph::Directory directory =
        mph::plan_layout(mph::Registry::parse(text), job);
    std::printf("plan OK — %d processes\n%s", total,
                directory.describe().c_str());
    return Outcome::clean;
  } catch (const mph::MphError& e) {  // the setup error the job would hit
    std::fprintf(stderr, "mph plan: %s\n", e.what());
    return Outcome::found;
  }
}

Outcome cmd_generate_ensemble(const Args& args) {
  const auto count = [&](const char* name, std::size_t i) {
    return static_cast<int>(
        mph::util::parse_flag_uint(name, args.positional[i], 1, INT_MAX));
  };
  mph::RegistryBuilder builder;
  builder.multi_instance(args.positional[0], count("<instances>", 1),
                         count("<ranks_each>", 2));
  std::fputs(builder.to_text().c_str(), stdout);
  return Outcome::clean;
}

Outcome cmd_check(const Args& args) {
  std::string dump_graph = args.value("--dump-graph");
  std::size_t findings = 0;
  for (const std::string& path : args.positional) {
    if (std::filesystem::path(path).extension() == ".mphc") {
      findings += check_contract(path, dump_graph);
      dump_graph.clear();  // only the first contract's graph
    } else {
      findings += check_registry(path);
    }
  }
  const bool expected = args.has("--expect-findings");
  return (findings != 0) != expected ? Outcome::found : Outcome::clean;
}

}  // namespace mph_tools
