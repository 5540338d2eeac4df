// mph_proto — declarative communication contracts for MPH jobs: a
// launch-free protocol checker, trace conformance, and contract inference.
//
// Usage:
//   mph_proto check <contract.mphc>... [--dump-graph FILE]
//                   [--expect-findings]
//       Parse each contract and statically verify send/recv compatibility,
//       tag/type agreement, collective consistency, orphan/unmatched
//       messages, and deadlock-freedom (causality-graph cycle analysis) —
//       with no job execution at all.  --dump-graph writes the first
//       contract's happens-before graph as Graphviz DOT.
//       --expect-findings inverts success: exit 0 iff findings were
//       reported (CI gates on seeded-broken contracts).
//
//   mph_proto conform <trace.json> <contract.mphc>
//       Check a recorded mph_trace export against a contract: each rank's
//       post-handshake protocol ops must replay the contract exactly.
//
//   mph_proto infer <trace.json> [--name NAME]
//       Propose contract text from a recorded trace (ranged receives,
//       loops, and per-rank `on` blocks are reconstructed).
//
//   mph_proto record <mode> [--ranks N] -o FILE
//       Run one of the five execution-mode scenarios (scse scme mcse mcme
//       mime — the same bodies mph_verify explores) with tracing enabled
//       and write the Chrome trace-event JSON, ready for `conform`/`infer`.
//
// Exit status: 0 success, 1 findings (or missing expected findings),
// 2 usage/parse/IO errors.
#include <climits>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/proto/checker.hpp"
#include "src/proto/conform.hpp"
#include "src/proto/infer.hpp"
#include "src/proto/parser.hpp"
#include "src/util/strings.hpp"
#include "tools/mode_scenarios.hpp"

namespace {

namespace proto = mph::proto;

int usage() {
  std::fprintf(
      stderr,
      "usage: mph_proto check <contract>... [--dump-graph FILE]\n"
      "                 [--expect-findings]\n"
      "       mph_proto conform <trace.json> <contract>\n"
      "       mph_proto infer <trace.json> [--name NAME]\n"
      "       mph_proto record <scse|scme|mcse|mcme|mime> [--ranks N]"
      " -o FILE\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::optional<std::string> text = mph::util::read_file(path);
  if (!text) throw std::runtime_error("cannot read '" + path + "'");
  return std::move(*text);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

int cmd_check(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::string dump_graph;
  bool expect_findings = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--dump-graph") {
      if (++i >= args.size()) return usage();
      dump_graph = args[i];
    } else if (args[i] == "--expect-findings") {
      expect_findings = true;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return usage();
  std::size_t findings = 0;
  for (const std::string& path : paths) {
    const proto::Contract contract = proto::load_contract(path);
    const proto::ProtoReport report = proto::check(contract);
    if (report.clean()) {
      std::printf("%s: contract '%s' OK (%d component(s), %zu proto(s))\n",
                  path.c_str(), contract.name.c_str(),
                  static_cast<int>(contract.components.size()),
                  contract.protos.size());
    } else {
      std::printf("%s: contract '%s' FAILED — %zu finding(s)\n%s",
                  path.c_str(), contract.name.c_str(), report.total(),
                  report.to_string().c_str());
      findings += report.total();
    }
    if (!dump_graph.empty() && path == paths.front()) {
      write_file(dump_graph, proto::dump_causality_dot(contract));
      std::printf("happens-before graph written to %s\n",
                  dump_graph.c_str());
    }
  }
  if (expect_findings) return findings != 0 ? 0 : 1;
  return findings != 0 ? 1 : 0;
}

int cmd_conform(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const proto::ObservedTrace trace =
      proto::read_trace_ops(read_file(args[0]));
  const proto::Contract contract = proto::load_contract(args[1]);
  const std::vector<std::string> findings = proto::conform(contract, trace);
  if (findings.empty()) {
    std::printf("%s conforms to contract '%s' (%zu rank(s) matched)\n",
                args[0].c_str(), contract.name.c_str(), trace.ranks.size());
    return 0;
  }
  for (const std::string& finding : findings) {
    std::printf("%s\n", finding.c_str());
  }
  std::printf("%s does NOT conform to contract '%s': %zu finding(s)\n",
              args[0].c_str(), contract.name.c_str(), findings.size());
  return 1;
}

int cmd_infer(const std::vector<std::string>& args) {
  std::string path;
  std::string name = "inferred";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--name") {
      if (++i >= args.size()) return usage();
      name = args[i];
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  const proto::ObservedTrace trace = proto::read_trace_ops(read_file(path));
  const std::string text = proto::infer_contract_text(trace, name);
  // Round-trip through the parser: inference must always emit valid text.
  (void)proto::parse_contract(text, "<inferred>");
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_record(const std::vector<std::string>& args) {
  std::string mode;
  std::string out_path;
  int ranks = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" || args[i] == "--output") {
      if (++i >= args.size()) return usage();
      out_path = args[i];
    } else if (args[i] == "--ranks") {
      if (++i >= args.size()) return usage();
      ranks = static_cast<int>(
          mph::util::parse_flag_uint("--ranks", args[i], 1, INT_MAX));
    } else if (mode.empty()) {
      mode = args[i];
    } else {
      return usage();
    }
  }
  if (mode.empty() || out_path.empty()) return usage();
  const std::optional<mph_tools::Scenario> scenario =
      mph_tools::make_mode_scenario(mode, ranks);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "mph_proto: unknown mode '%s'\n", mode.c_str());
    return usage();
  }
  minimpi::JobOptions options;
  options.trace.enabled = true;
  const minimpi::JobReport report =
      minimpi::run_mpmd(mph_tools::make_exec_specs(*scenario), options);
  if (!report.ok) {
    std::fprintf(stderr, "mph_proto: scenario '%s' failed: %s\n",
                 mode.c_str(), report.first_error().c_str());
    return 2;
  }
  if (!report.trace.has_value()) {
    std::fprintf(stderr, "mph_proto: scenario produced no trace\n");
    return 2;
  }
  write_file(out_path, report.trace->to_chrome_json());
  std::printf("mode '%s' trace written to %s\n", mode.c_str(),
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (args[0] == "check") return cmd_check(rest);
    if (args[0] == "conform") return cmd_conform(rest);
    if (args[0] == "infer") return cmd_infer(rest);
    if (args[0] == "record") return cmd_record(rest);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_proto: %s\n", e.what());
    return 2;
  }
}
