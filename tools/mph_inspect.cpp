// mph_inspect — command-line companion for MPH deployments.
//
// Usage:
//   mph_inspect validate <processors_map.in>
//       Parse and validate a registration file; print its structure.
//
//   mph_inspect plan <processors_map.in> <exec>...
//       Dry-run the handshake against a command file, printing the exact
//       Directory the job would build (or the setup error it would die
//       with) — without queueing anything.  Each <exec> is
//           name[,name...]:<nprocs>      a component-declaring executable
//           I:<prefix>:<nprocs>          a multi-instance executable
//       in command-file (rank) order.
//
//   mph_inspect generate-ensemble <prefix> <instances> <ranks_each>
//       Emit a Multi_Instance registration file for an ensemble.
//
//   mph_inspect check <processors_map.in>     (also: --check)
//       Static pre-launch lint: flags overlapping rank ranges (error for
//       Multi_Instance siblings, warning for Multi_Component overlap),
//       duplicate component names, processors no component can reach, and
//       `contract=<file>` arguments naming a missing or unparseable
//       mph_proto contract (error) or one that never declares the
//       referencing component (warning).
//
//   mph_inspect trace <trace.json> [--critical]
//       Summarize an mph_trace export (TraceReport::to_chrome_json): the
//       component-pair traffic matrix, per-context message counts,
//       wildcard-receive count, and the ranks with the most blocked time.
//       --critical appends the five longest critical-path segments (the
//       mph_prof causal analysis; run `mph_prof report` for the full
//       blame breakdown).
//
//   mph_inspect top <mph_monitor.sock | mph_metrics.jsonl> [--once]
//               [--interval=ms]
//       Live top-style view of a running (or finished) monitored job:
//       per-component rank counts, message/byte rates, queue depths, and
//       blocked-time share, refreshed from the monitor's AF_UNIX socket or
//       its JSONL snapshot stream.  --once prints a single frame.
//
//   mph_inspect watch <sock | metrics.jsonl | health.jsonl>... [--once]
//               [--interval=ms]
//       Aggregate the metrics and mph_watch health streams of SEVERAL jobs
//       into one console: a summary line and the active alerts per job,
//       then the jobs' recent health events merged on their wall-clock
//       stamps.  Each source is a monitor socket, a metrics JSONL, or a
//       health JSONL; the missing half is read from the sibling file.
//
//   mph_inspect lint [<dir>]
//       Atomics lint for the lock-free layer (default dir: src/minimpi).
//       Flags raw `std::atomic` uses outside the mph_racer shim — the
//       shim is what makes the code model-checkable, so every atomic in
//       the layer must go through mph::atomic — and explicit
//       `memory_order_seq_cst` on the hot paths (the layer's protocols
//       are specified in release/acquire/relaxed terms; seq_cst usually
//       hides a missing ordering argument).  A `racer-lint: allow`
//       comment on the same or the preceding line waives a finding.
//
// Exit status: 0 on success, 1 on validation/plan/check failure, 2 on usage.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/minimpi/prof/profile.hpp"
#include "src/minimpi/prof/trace_load.hpp"
#include "src/mph/builder.hpp"
#include "src/mph/errors.hpp"
#include "src/mph/layout.hpp"
#include "src/mph/monitor.hpp"
#include "src/mph/registry.hpp"
#include "src/proto/contract.hpp"
#include "src/proto/parser.hpp"
#include "src/util/strings.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mph_inspect validate <file>\n"
               "       mph_inspect plan <file> <names[,names]:<nprocs> | "
               "I:<prefix>:<nprocs>>...\n"
               "       mph_inspect generate-ensemble <prefix> <instances> "
               "<ranks_each>\n"
               "       mph_inspect check <file>\n"
               "       mph_inspect trace <trace.json> [--critical]\n"
               "       mph_inspect top <mph_monitor.sock | mph_metrics.jsonl>"
               " [--once] [--interval=ms]\n"
               "       mph_inspect watch <sock | metrics.jsonl | "
               "health.jsonl>... [--once] [--interval=ms]\n"
               "       mph_inspect lint [<dir>]\n");
  return 2;
}

// ---------------------------------------------------------------------------
// lint — atomics discipline for the lock-free layer
// ---------------------------------------------------------------------------

/// The marker that waives a lint finding on its own line or the next one.
constexpr std::string_view kLintAllow = "racer-lint: allow";

/// One banned token plus the reason shown with a finding.
struct LintRule {
  std::string_view token;
  std::string_view message;
};

constexpr LintRule kLintRules[] = {
    {"std::atomic",
     "raw std::atomic in the lock-free layer — use mph::atomic "
     "(src/minimpi/racer/atomic.hpp) so mph_racer can model it"},
    {"memory_order_seq_cst",
     "explicit memory_order_seq_cst on a hot path — state the protocol's "
     "actual ordering (release/acquire/relaxed); see DESIGN.md §14"},
};

/// True when `text` contains `token` outside of any // comment (the code
/// part is everything before the first "//"; this codebase has no /* */
/// comments or "//" inside string literals on atomic-bearing lines).
bool code_part_contains(std::string_view text, std::string_view token) {
  const std::size_t comment = text.find("//");
  return text.substr(0, comment).find(token) != std::string_view::npos;
}

int cmd_lint(const std::string& root) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "mph_inspect: lint: not a directory: %s\n",
                 root.c_str());
    return 2;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".hpp" && p.extension() != ".cpp") continue;
    // The shim itself is the one sanctioned home of raw std::atomic (its
    // fallback word and the racer-off alias).
    if (p.filename() == "atomic.hpp" &&
        p.parent_path().filename() == "racer") {
      continue;
    }
    files.push_back(p);
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    // An empty scan passing silently would make the CI gate vacuous
    // (e.g. lint run from the build directory instead of the repo root).
    std::fprintf(stderr, "mph_inspect: lint: no .hpp/.cpp files under %s\n",
                 root.c_str());
    return 2;
  }

  int findings = 0;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::string line;
    std::string prev;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const bool waived =
          line.find(kLintAllow) != std::string::npos ||
          prev.find(kLintAllow) != std::string::npos;
      for (const LintRule& rule : kLintRules) {
        if (!waived && code_part_contains(line, rule.token)) {
          std::printf("%s:%d: %s\n", path.c_str(), lineno,
                      std::string(rule.message).c_str());
          ++findings;
        }
      }
      prev = line;
    }
  }
  if (findings != 0) {
    std::printf(
        "mph_inspect lint: %d finding(s) in %s (waive a deliberate use "
        "with a '%s' comment on the same or preceding line)\n",
        findings, root.c_str(), std::string(kLintAllow).c_str());
    return 1;
  }
  std::printf("mph_inspect lint: %zu file(s) clean in %s\n", files.size(),
              root.c_str());
  return 0;
}

int cmd_validate(const std::string& path) {
  const mph::Registry registry = mph::Registry::load(path);
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
  return 0;
}

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
    throw mph::MphError("bad executable spec '" + spec +
                        "' (expected names:<nprocs>)");
  }
  const auto nprocs = mph::util::parse_int(rest.substr(colon + 1));
  if (!nprocs.has_value() || *nprocs <= 0) {
    throw mph::MphError("bad process count in '" + spec + "'");
  }
  exec.nprocs = static_cast<int>(*nprocs);
  for (std::string_view name : mph::util::split(rest.substr(0, colon), ',')) {
    exec.names.emplace_back(name);
  }
  if (exec.names.empty() || exec.names.front().empty()) {
    throw mph::MphError("no component names in '" + spec + "'");
  }
  return exec;
}

int cmd_plan(const std::string& path, const std::vector<std::string>& specs) {
  const mph::Registry registry = mph::Registry::load(path);
  std::vector<mph::PlannedExecutable> job;
  int total = 0;
  for (const std::string& spec : specs) {
    job.push_back(parse_exec_spec(spec));
    total += job.back().nprocs;
  }
  const mph::Directory directory = mph::plan_layout(registry, job);
  std::printf("plan OK — %d processes\n%s", total,
              directory.describe().c_str());
  return 0;
}

int cmd_check(const std::string& path) {
  int errors = 0;
  int warnings = 0;
  const auto finding = [&](bool is_error, const std::string& text) {
    std::printf("%s: %s: %s\n", path.c_str(), is_error ? "error" : "warning",
                text.c_str());
    (is_error ? errors : warnings) += 1;
  };
  const auto summary = [&] {
    std::printf("%s: %d error(s), %d warning(s)\n", path.c_str(), errors,
                warnings);
    return errors > 0 ? 1 : 0;
  };

  std::optional<mph::Registry> registry;
  try {
    registry.emplace(mph::Registry::load(path));
  } catch (const std::exception& e) {
    // The parser already rejects duplicate component names, malformed
    // ranges, and broken block structure; surface those as check findings.
    finding(true, e.what());
    return summary();
  }

  const auto describe = [](const mph::ComponentEntry& c) {
    std::string out = "'" + c.name + "'";
    if (c.has_range()) {
      out += " (" + std::to_string(c.low) + ".." + std::to_string(c.high) + ")";
    }
    return out;
  };

  for (const mph::ExecutableBlock& block : registry->blocks()) {
    const char* kind = mph::block_kind_name(block.kind);

    // Overlapping rank ranges between sibling components of one executable.
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
          const bool is_error =
              block.kind == mph::BlockKind::multi_instance;
          finding(is_error,
                  std::string(kind) + " entries " + describe(a) + " and " +
                      describe(b) + " claim overlapping processors" +
                      (is_error ? "" : " (legal for embedded components — "
                                       "verify this is intended)"));
        }
      }
    }

    // Contract references: a `contract=<file>` argument names an mph_proto
    // communication contract (relative paths resolve against the registry
    // file's directory).  A missing or unparseable contract is an error —
    // it would fail every pinned executable at registration time — and a
    // contract that never declares the referencing component is a warning.
    for (const mph::ComponentEntry& c : block.components) {
      std::string contract_path;
      if (!c.args.get("contract", contract_path)) continue;
      namespace fs = std::filesystem;
      fs::path resolved(contract_path);
      if (resolved.is_relative()) {
        resolved = fs::path(path).parent_path() / resolved;
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

    // Processors of the executable that no component claims: ranks a
    // launcher must provide but nothing can ever address ("unreachable").
    const int size = block.required_size();
    if (size > 0) {
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
  return summary();
}

std::string format_ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

int cmd_trace(const std::string& path, bool critical) {
  const std::optional<std::string> text = mph::util::read_file(path);
  if (!text) {
    throw mph::MphError("cannot open trace file '" + path + "'");
  }
  // A monitor snapshot stream is also JSON-per-line and easy to pass here
  // by mistake; without this check it would "summarize" as an empty trace
  // (or die on a parse error).  Name the right subcommand instead.
  if (mph::mon::looks_like_metrics(*text)) {
    throw mph::MphError(
        "'" + path + "' is an mph_mon metrics stream (JSONL lines with "
        "\"kind\": \"mph_metrics\"), not a Chrome trace export — view it "
        "with `mph_inspect top " + path + "`; `mph_inspect trace` expects "
        "the output of TraceReport::to_chrome_json()");
  }
  // The one trace reader (shared with mph_prof and mph_proto); the rollup
  // below is computed from the loaded report by the same methods the
  // writer used for the document's "mph" object.
  const minimpi::prof::LoadedTrace loaded =
      minimpi::prof::load_chrome_trace(*text);
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

  if (critical) {
    // Causal view: the five longest critical-path segments, via the
    // mph_prof library.
    const minimpi::prof::Profile profile =
        minimpi::prof::Graph::build(report).profile();
    std::printf("\n%s",
                minimpi::prof::render_top_segments(profile, 5).c_str());
    std::printf(
        "(critical path %s ms of %s ms wall — `mph_prof report` has the "
        "full blame breakdown)\n",
        format_ms(static_cast<double>(profile.path_total_ns)).c_str(),
        format_ms(static_cast<double>(profile.wall_ns())).c_str());
  }
  return 0;
}

/// Fetch the newest snapshot from `source` — the monitor's AF_UNIX socket
/// while the job runs, its JSONL file after (or instead).  File reads are
/// rotation/truncation tolerant (last_valid_snapshot), and a socket frame
/// torn mid-write counts as a miss to resync on, not an error.
std::optional<minimpi::MetricsSnapshot> fetch_snapshot(
    const std::string& source) {
  if (auto line = mph::mon::read_socket_line(source)) {
    try {
      return mph::mon::parse_snapshot(*line);
    } catch (const std::exception&) {
      // Torn frame; fall through to the file, or miss and retry.
    }
  }
  return mph::mon::last_valid_snapshot(source);
}

int cmd_top(const std::string& source, bool once, int interval_ms) {
  std::optional<minimpi::MetricsSnapshot> prev;
  int misses = 0;
  for (;;) {
    const std::optional<minimpi::MetricsSnapshot> snap =
        fetch_snapshot(source);
    if (!snap.has_value()) {
      if (once || ++misses > 5) {
        throw mph::MphError(
            "no metrics snapshot available from '" + source +
            "' — point `top` at a monitored job's mph_monitor.sock or "
            "mph_metrics.jsonl (enable with JobOptions::monitor or "
            "MINIMPI_MONITOR=1)");
      }
    } else {
      misses = 0;
      // The seq stamp tells a fresh frame from a re-served line (a file
      // that stopped advancing): only a distinct frame updates the rate
      // window, so rates never collapse to zero against themselves.
      if (!prev.has_value() || snap->seq != prev->seq || once) {
        const mph::mon::TopView view = mph::mon::build_top_view(
            prev.has_value() && prev->seq != snap->seq ? &*prev : nullptr,
            *snap);
        if (!once) std::printf("\033[2J\033[H");  // clear + home, like top(1)
        std::fputs(mph::mon::render_top(view).c_str(), stdout);
        std::fflush(stdout);
        prev = snap;
      }
      if (once) return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

/// Assemble one job of the `watch` aggregator from a source argument: a
/// monitor socket, an mph_metrics.jsonl, or an mph_health.jsonl.  The
/// missing half is picked up from the sibling file in the same directory
/// (the watcher writes its health log next to the monitor's stream).
mph::mon::WatchJob fetch_watch_job(const std::string& source) {
  namespace fs = std::filesystem;
  mph::mon::WatchJob job;
  job.source = source;
  const fs::path dir = fs::path(source).parent_path();
  std::string health_path = (dir / "mph_health.jsonl").string();

  std::ifstream probe(source);
  std::string first;
  if (probe) {
    while (std::getline(probe, first) && first.empty()) continue;
  }
  if (!first.empty() && mph::mon::looks_like_health(first)) {
    health_path = source;
    job.snapshot = mph::mon::last_valid_snapshot(
        (dir / "mph_metrics.jsonl").string());
    job.online = job.snapshot.has_value();
  } else {
    job.snapshot = fetch_snapshot(source);
    job.online = job.snapshot.has_value();
  }
  job.events = mph::mon::read_health_tail(health_path);
  return job;
}

int cmd_watch(const std::vector<std::string>& sources, bool once,
              int interval_ms) {
  int misses = 0;
  for (;;) {
    std::vector<mph::mon::WatchJob> jobs;
    bool any = false;
    for (const std::string& source : sources) {
      jobs.push_back(fetch_watch_job(source));
      any = any || jobs.back().snapshot.has_value() ||
            !jobs.back().events.empty();
    }
    if (!any) {
      if (once || ++misses > 5) {
        throw mph::MphError(
            "no metrics or health data available from the given sources — "
            "point `watch` at monitored jobs' mph_monitor.sock, "
            "mph_metrics.jsonl, or mph_health.jsonl (enable with "
            "JobOptions::watch or MINIMPI_WATCH=1)");
      }
    } else {
      misses = 0;
      const mph::mon::WatchView view =
          mph::mon::build_watch_view(std::move(jobs));
      if (!once) std::printf("\033[2J\033[H");
      std::fputs(mph::mon::render_watch(view).c_str(), stdout);
      std::fflush(stdout);
      if (once) return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int cmd_generate(const std::string& prefix, const std::string& count,
                 const std::string& ranks) {
  const auto instances = mph::util::parse_int(count);
  const auto ranks_each = mph::util::parse_int(ranks);
  if (!instances || !ranks_each || *instances <= 0 || *ranks_each <= 0) {
    throw mph::MphError("instances and ranks_each must be positive integers");
  }
  mph::RegistryBuilder builder;
  builder.multi_instance(prefix, static_cast<int>(*instances),
                         static_cast<int>(*ranks_each));
  std::fputs(builder.to_text().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "validate") {
      return cmd_validate(args[1]);
    }
    if (args.size() >= 3 && args[0] == "plan") {
      return cmd_plan(args[1], {args.begin() + 2, args.end()});
    }
    if (args.size() == 4 && args[0] == "generate-ensemble") {
      return cmd_generate(args[1], args[2], args[3]);
    }
    if (args.size() == 2 && (args[0] == "check" || args[0] == "--check")) {
      return cmd_check(args[1]);
    }
    if ((args.size() == 2 || args.size() == 3) && args[0] == "trace") {
      bool critical = false;
      std::string source;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--critical") critical = true;
        else if (source.empty()) source = args[i];
        else return usage();
      }
      if (!source.empty()) return cmd_trace(source, critical);
      return usage();
    }
    if (args.size() >= 2 && args[0] == "top") {
      bool once = false;
      int interval_ms = 1000;
      std::string source;
      bool bad = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--once") {
          once = true;
        } else if (mph::util::starts_with(args[i], "--interval=")) {
          const auto ms = mph::util::parse_int(
              std::string_view(args[i]).substr(sizeof("--interval=") - 1));
          if (!ms.has_value() || *ms <= 0) bad = true;
          else interval_ms = static_cast<int>(*ms);
        } else if (source.empty()) {
          source = args[i];
        } else {
          bad = true;
        }
      }
      if (!bad && !source.empty()) return cmd_top(source, once, interval_ms);
    }
    if (args.size() >= 2 && args[0] == "watch") {
      bool once = false;
      int interval_ms = 1000;
      std::vector<std::string> sources;
      bool bad = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--once") {
          once = true;
        } else if (mph::util::starts_with(args[i], "--interval=")) {
          const auto ms = mph::util::parse_int(
              std::string_view(args[i]).substr(sizeof("--interval=") - 1));
          if (!ms.has_value() || *ms <= 0) bad = true;
          else interval_ms = static_cast<int>(*ms);
        } else {
          sources.push_back(args[i]);
        }
      }
      if (!bad && !sources.empty()) {
        return cmd_watch(sources, once, interval_ms);
      }
    }
    if ((args.size() == 1 || args.size() == 2) && args[0] == "lint") {
      return cmd_lint(args.size() == 2 ? args[1] : "src/minimpi");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_inspect: %s\n", e.what());
    return 1;
  }
  return usage();
}
