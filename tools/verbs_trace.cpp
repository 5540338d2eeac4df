// The `mph` verbs that read or write Chrome trace exports
// (TraceReport::to_chrome_json): trace, report, annotate, record, conform
// and infer.  All of them load through the one trace reader
// (minimpi::prof::load_chrome_trace).
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/minimpi/prof/trace_load.hpp"
#include "src/mph/monitor.hpp"
#include "src/proto/conform.hpp"
#include "src/proto/infer.hpp"
#include "src/proto/parser.hpp"
#include "src/util/strings.hpp"
#include "tools/cli.hpp"
#include "tools/mode_scenarios.hpp"

namespace mph_tools {

namespace {

namespace prof = minimpi::prof;
namespace proto = mph::proto;

std::string format_ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

/// One --what-if question: a component name or rank:<R>, with an optional
/// trailing :<pct> speedup (default 20%).
prof::WhatIf what_if(const prof::Graph& graph, const prof::Profile& profile,
                     std::string target) {
  double fraction = 0.2;
  // A trailing :<pct> is numeric; rank:<R> keeps its own first colon.
  const std::size_t min_pos = target.rfind("rank:", 0) == 0 ? 5 : 0;
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos && colon >= min_pos) {
    const std::optional<double> pct =
        mph::util::parse_double(std::string_view(target).substr(colon + 1));
    if (pct && *pct > 0.0) {
      fraction = *pct / 100.0;
      target.resize(colon);
    }
  }
  if (target.empty()) throw std::invalid_argument("--what-if needs a target");
  if (target.rfind("rank:", 0) == 0) {
    const auto rank = static_cast<minimpi::rank_t>(
        mph::util::parse_flag_uint("--what-if", target.substr(5), 0, INT_MAX));
    return prof::what_if_rank(graph, profile, rank, fraction);
  }
  return prof::what_if_component(graph, profile, target, fraction);
}

}  // namespace

Outcome cmd_trace(const Args& args) {
  const std::string& path = args.positional[0];
  const std::string text = read_input(path);
  // A monitor snapshot stream is also JSON-per-line and easy to pass here
  // by mistake; without this check it would "summarize" as an empty trace
  // (or die on a parse error).  Name the right verb instead.
  if (mph::mon::looks_like_metrics(text)) {
    throw std::runtime_error(
        "'" + path + "' is an mph_mon metrics stream (JSONL lines with "
        "\"kind\": \"mph_metrics\"), not a Chrome trace export — view it "
        "with `mph top " + path + "`; `mph trace` expects the output of "
        "TraceReport::to_chrome_json()");
  }
  // The rollup below is computed from the loaded report by the same
  // methods the writer used for the document's "mph" object.
  const prof::LoadedTrace loaded = prof::load_chrome_trace(text);
  const minimpi::TraceReport& report = loaded.report;

  std::printf("%s:\n", path.c_str());

  // Component-pair traffic matrix.
  const std::vector<minimpi::TraceReport::Traffic> traffic =
      report.component_traffic();
  std::printf("\ncomponent traffic (%zu pair%s):\n", traffic.size(),
              traffic.size() == 1 ? "" : "s");
  if (traffic.empty()) {
    std::printf("  (no point-to-point messages recorded)\n");
  }
  for (const minimpi::TraceReport::Traffic& pair : traffic) {
    std::printf("  %-16s -> %-16s %10llu msgs %12llu bytes\n",
                pair.src.c_str(), pair.dest.c_str(),
                static_cast<unsigned long long>(pair.messages),
                static_cast<unsigned long long>(pair.bytes));
  }

  // Per-context (communicator) delivery counts.
  std::printf("\nmessages by communicator context:\n");
  if (report.comm.messages_by_context.empty()) std::printf("  (none)\n");
  for (const auto& [context, messages] : report.comm.messages_by_context) {
    std::printf("  context %-6llu %10llu msgs\n",
                static_cast<unsigned long long>(context),
                static_cast<unsigned long long>(messages));
  }
  std::printf("\nwildcard (any_source) receives: %llu\n",
              static_cast<unsigned long long>(report.comm.wildcard_recvs));

  // Ranks with the most blocked time, worst first.
  struct RankRow {
    minimpi::TraceReport::RankBlocked blocked;
    std::uint64_t queue_high_water;
  };
  std::vector<RankRow> rows;
  std::uint64_t total_dropped = 0;
  const std::vector<minimpi::TraceReport::RankBlocked> blocked =
      report.blocked_breakdown();
  for (std::size_t i = 0; i < report.ranks.size(); ++i) {
    rows.push_back(RankRow{blocked[i], report.ranks[i].queue_high_water});
    total_dropped += report.ranks[i].dropped;
  }
  // Deterministic order even when two ranks blocked for exactly the same
  // time (common in lock-step couplings): break ties by rank.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RankRow& a, const RankRow& b) {
                     if (a.blocked.total_ns() != b.blocked.total_ns()) {
                       return a.blocked.total_ns() > b.blocked.total_ns();
                     }
                     return a.blocked.world_rank < b.blocked.world_rank;
                   });
  constexpr std::size_t kTopRanks = 10;
  std::printf("\ntop blocked ranks (of %zu; ms blocked):\n", rows.size());
  std::printf("  %-20s %10s %10s %10s %10s  %s\n", "track", "recv-wait",
              "coll-wait", "handshake", "total", "queue-hw");
  for (std::size_t i = 0; i < rows.size() && i < kTopRanks; ++i) {
    const minimpi::TraceReport::RankBlocked& b = rows[i].blocked;
    std::printf("  %-20s %10s %10s %10s %10s  %llu\n", b.track.c_str(),
                format_ms(static_cast<double>(b.recv_wait_ns)).c_str(),
                format_ms(static_cast<double>(b.collective_wait_ns)).c_str(),
                format_ms(static_cast<double>(b.handshake_ns)).c_str(),
                format_ms(static_cast<double>(b.total_ns())).c_str(),
                static_cast<unsigned long long>(rows[i].queue_high_water));
  }
  if (total_dropped > 0) {
    std::printf(
        "\nwarning: %llu event(s) dropped from full rings — raise "
        "MINIMPI_TRACE=capacity=N for complete timelines\n",
        static_cast<unsigned long long>(total_dropped));
  }
  return Outcome::clean;
}

Outcome cmd_report(const Args& args) {
  const std::size_t top = args.number("--top", 5, 1, SIZE_MAX);
  const prof::LoadedTrace loaded =
      prof::load_chrome_trace(read_input(args.positional[0]));
  const prof::Graph graph = prof::Graph::build(loaded.report);
  const prof::Profile profile = graph.profile();

  std::vector<prof::WhatIf> what_ifs;
  for (const std::string& target : args.values("--what-if")) {
    what_ifs.push_back(what_if(graph, profile, target));
  }
  // Default question: the top-blamed component, 20% faster.
  const auto blame = profile.components();
  if (!args.has("--what-if") && !blame.empty()) {
    what_ifs.push_back(prof::what_if_component(graph, profile,
                                               blame.front().component, 0.2));
  }
  std::fputs(prof::render_report(profile, what_ifs, top).c_str(), stdout);
  return Outcome::clean;
}

Outcome cmd_annotate(const Args& args) {
  const std::string& path = args.positional[0];
  const std::string out_path = args.value("-o", path + ".critical.json");
  const prof::LoadedTrace loaded = prof::load_chrome_trace(read_input(path));
  const prof::Profile profile = prof::Graph::build(loaded.report).profile();
  mph::util::write_file(out_path,
                        prof::annotate_chrome_json(loaded.report, profile));
  std::fprintf(stderr,
               "mph annotate: wrote %s (%zu critical-path segments tagged)\n",
               out_path.c_str(), profile.path.size());
  return Outcome::clean;
}

Outcome cmd_record(const Args& args) {
  const std::string& mode = args.positional[0];
  if (!args.has("-o")) throw std::invalid_argument("-o FILE is required");
  const std::optional<Scenario> scenario = make_mode_scenario(
      mode, static_cast<int>(args.number("--ranks", 0, 1, INT_MAX)));
  if (!scenario.has_value()) {
    throw std::invalid_argument("unknown mode '" + mode + "'");
  }
  minimpi::JobOptions options;
  options.trace.enabled = true;
  const minimpi::JobReport report =
      minimpi::run_mpmd(make_exec_specs(*scenario), options);
  if (!report.ok) {
    throw std::runtime_error("scenario '" + mode +
                             "' failed: " + report.first_error());
  }
  if (!report.trace.has_value()) {
    throw std::runtime_error("scenario produced no trace");
  }
  const std::string out_path = args.value("-o");
  mph::util::write_file(out_path, report.trace->to_chrome_json());
  std::printf("mode '%s' trace written to %s\n", mode.c_str(),
              out_path.c_str());
  return Outcome::clean;
}

Outcome cmd_conform(const Args& args) {
  const std::string& path = args.positional[0];
  const proto::ObservedTrace trace = proto::read_trace_ops(read_input(path));
  const proto::Contract contract = proto::load_contract(args.positional[1]);
  const std::vector<std::string> findings = proto::conform(contract, trace);
  if (findings.empty()) {
    std::printf("%s conforms to contract '%s' (%zu rank(s) matched)\n",
                path.c_str(), contract.name.c_str(), trace.ranks.size());
    return Outcome::clean;
  }
  for (const std::string& finding : findings) {
    std::printf("%s\n", finding.c_str());
  }
  std::printf("%s does NOT conform to contract '%s': %zu finding(s)\n",
              path.c_str(), contract.name.c_str(), findings.size());
  return Outcome::found;
}

Outcome cmd_infer(const Args& args) {
  const proto::ObservedTrace trace =
      proto::read_trace_ops(read_input(args.positional[0]));
  const std::string text =
      proto::infer_contract_text(trace, args.value("--name", "inferred"));
  // Round-trip through the parser: inference must always emit valid text.
  (void)proto::parse_contract(text, "<inferred>");
  std::fputs(text.c_str(), stdout);
  return Outcome::clean;
}

}  // namespace mph_tools
