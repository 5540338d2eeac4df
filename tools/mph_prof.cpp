// mph_prof — cross-rank causal critical-path profiler.
//
// Loads an mph_trace Chrome-JSON export (TraceReport::to_chrome_json),
// stitches the per-rank timelines into a job-wide happens-before DAG via
// the per-message flow ids, and reports which ranks' work actually bounds
// the job.  See src/minimpi/prof/profile.hpp and DESIGN.md §16.
//
// Usage:
//   mph_prof report <trace.json> [--top=N] [--what-if=<target>[:<pct>]]...
//       Text bottleneck report: critical-path total vs wall time, blame by
//       kind (compute / recv-wait / collective-wait / handshake) and by
//       component, the top-N longest path segments, per-rank slack, and
//       what-if answers.  <target> is a component name or rank:<R>; <pct>
//       is the speedup percentage (default 20).  Without --what-if, the
//       top-blamed component at 20% faster is answered automatically.
//
//   mph_prof annotate <trace.json> [-o <out.json>]
//       Re-emit the trace with the critical path overlaid: cat:"critical"
//       spans on each rank's track plus flow arrows for the message edges
//       the path followed, so Perfetto highlights the binding chain.
//       Default output: <trace>.critical.json.
//
// Exit status: 0 on success, 1 on load/analysis failure, 2 on usage.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/minimpi/prof/trace_load.hpp"
#include "src/util/strings.hpp"

namespace {

namespace prof = minimpi::prof;
using mph::util::parse_flag_uint;

int usage() {
  std::fprintf(
      stderr,
      "usage: mph_prof report <trace.json> [--top=N] "
      "[--what-if=<component|rank:R>[:<pct>]]...\n"
      "       mph_prof annotate <trace.json> [-o <out.json>]\n");
  return 2;
}

int cmd_report(const std::vector<std::string>& args) {
  std::string path;
  std::size_t top = 5;
  struct Target {
    std::string name;
    std::optional<minimpi::rank_t> rank;  ///< set for rank:<R>
    double fraction = 0.2;
  };
  std::vector<Target> targets;
  for (const std::string& arg : args) {
    if (arg.rfind("--top=", 0) == 0) {
      top = parse_flag_uint("--top", arg.substr(6), 1, SIZE_MAX);
    } else if (arg.rfind("--what-if=", 0) == 0) {
      Target t;
      t.name = arg.substr(10);
      // A trailing :<pct> is numeric; rank:<R> keeps its own first colon.
      const std::size_t min_pos =
          t.name.rfind("rank:", 0) == 0 ? 5 : 0;
      const std::size_t colon = t.name.rfind(':');
      if (colon != std::string::npos && colon >= min_pos) {
        const std::optional<double> pct =
            mph::util::parse_double(std::string_view(t.name).substr(colon + 1));
        if (pct && *pct > 0.0) {
          t.fraction = *pct / 100.0;
          t.name.resize(colon);
        }
      }
      if (t.name.rfind("rank:", 0) == 0) {
        t.rank = static_cast<minimpi::rank_t>(
            parse_flag_uint("--what-if", t.name.substr(5), 0, INT_MAX));
      }
      if (t.name.empty()) return usage();
      targets.push_back(std::move(t));
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  const prof::LoadedTrace loaded = prof::load_chrome_trace_file(path);
  const prof::Graph graph = prof::Graph::build(loaded.report);
  const prof::Profile profile = graph.profile();

  std::vector<prof::WhatIf> what_ifs;
  if (targets.empty()) {
    // Default question: the top-blamed component, 20% faster.
    const auto blame = profile.components();
    if (!blame.empty()) {
      what_ifs.push_back(
          prof::what_if_component(graph, profile, blame.front().component,
                                  0.2));
    }
  }
  for (const Target& t : targets) {
    if (t.rank) {
      what_ifs.push_back(
          prof::what_if_rank(graph, profile, *t.rank, t.fraction));
    } else {
      what_ifs.push_back(
          prof::what_if_component(graph, profile, t.name, t.fraction));
    }
  }
  const std::string report = prof::render_report(profile, what_ifs, top);
  std::fputs(report.c_str(), stdout);
  return 0;
}

int cmd_annotate(const std::vector<std::string>& args) {
  std::string path;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (out_path.empty()) out_path = path + ".critical.json";

  const prof::LoadedTrace loaded = prof::load_chrome_trace_file(path);
  const prof::Graph graph = prof::Graph::build(loaded.report);
  const prof::Profile profile = graph.profile();
  const std::string annotated =
      prof::annotate_chrome_json(loaded.report, profile);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mph_prof: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << annotated;
  std::fprintf(stderr,
               "mph_prof: wrote %s (%zu critical-path segments tagged)\n",
               out_path.c_str(), profile.path.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "report") return cmd_report(args);
    if (command == "annotate") return cmd_annotate(args);
  } catch (const std::invalid_argument& ex) {  // a bad flag value
    std::fprintf(stderr, "mph_prof: %s\n", ex.what());
    return usage();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "mph_prof: %s\n", ex.what());
    return 1;
  }
  return usage();
}
