// The `mph` verbs that watch running jobs (top, watch) and the atomics
// lint of the lock-free layer (lint).
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/mph/monitor.hpp"
#include "tools/cli.hpp"

namespace mph_tools {

namespace {

/// The poll loop `top` and `watch` share.  `frame` returns the text to
/// draw, "" when nothing changed since the last draw, or nullopt when no
/// data is available (a miss).  --once draws one frame; otherwise the
/// screen is redrawn every --interval ms until six misses in a row.
Outcome poll(const Args& args,
             const std::function<std::optional<std::string>()>& frame,
             const std::string& no_data) {
  const bool once = args.has("--once");
  const std::chrono::milliseconds interval(
      args.number("--interval", 1000, 1, INT_MAX));
  for (int misses = 0;; std::this_thread::sleep_for(interval)) {
    const std::optional<std::string> text = frame();
    if (!text.has_value()) {
      if (once || ++misses > 5) throw std::runtime_error(no_data);
      continue;
    }
    misses = 0;
    if (!text->empty()) {
      if (!once) std::printf("\033[2J\033[H");  // clear + home, like top(1)
      std::fputs(text->c_str(), stdout);
      std::fflush(stdout);
    }
    if (once) return Outcome::clean;
  }
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
  } else {
    job.snapshot = fetch_snapshot(source);
  }
  job.online = job.snapshot.has_value();
  job.events = mph::mon::read_health_tail(health_path);
  return job;
}

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

}  // namespace

Outcome cmd_top(const Args& args) {
  const std::string& source = args.positional[0];
  std::optional<minimpi::MetricsSnapshot> prev;
  return poll(
      args,
      [&]() -> std::optional<std::string> {
        const std::optional<minimpi::MetricsSnapshot> snap =
            fetch_snapshot(source);
        if (!snap.has_value()) return std::nullopt;
        // The seq stamp tells a fresh frame from a re-served line (a file
        // that stopped advancing): only a distinct frame updates the rate
        // window, so rates never collapse to zero against themselves.
        const bool fresh = prev.has_value() && prev->seq != snap->seq;
        if (prev.has_value() && !fresh && !args.has("--once")) return "";
        const mph::mon::TopView view =
            mph::mon::build_top_view(fresh ? &*prev : nullptr, *snap);
        prev = snap;
        return mph::mon::render_top(view);
      },
      "no metrics snapshot available from '" + source +
          "' — point `top` at a monitored job's mph_monitor.sock or "
          "mph_metrics.jsonl (enable with JobOptions::monitor or "
          "MINIMPI_MONITOR=1)");
}

Outcome cmd_watch(const Args& args) {
  return poll(
      args,
      [&]() -> std::optional<std::string> {
        std::vector<mph::mon::WatchJob> jobs;
        bool any = false;
        for (const std::string& source : args.positional) {
          jobs.push_back(fetch_watch_job(source));
          any = any || jobs.back().snapshot.has_value() ||
                !jobs.back().events.empty();
        }
        if (!any) return std::nullopt;
        return mph::mon::render_watch(
            mph::mon::build_watch_view(std::move(jobs)));
      },
      "no metrics or health data available from the given sources — "
      "point `watch` at monitored jobs' mph_monitor.sock, "
      "mph_metrics.jsonl, or mph_health.jsonl (enable with "
      "JobOptions::watch or MINIMPI_WATCH=1)");
}

Outcome cmd_lint(const Args& args) {
  namespace fs = std::filesystem;
  const std::string root =
      args.positional.empty() ? "src/minimpi" : args.positional[0];
  if (!fs::is_directory(root)) {
    throw std::runtime_error("not a directory: " + root);
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
    throw std::runtime_error("no .hpp/.cpp files under " + root);
  }

  int findings = 0;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::string line;
    std::string prev;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const bool waived = line.find(kLintAllow) != std::string::npos ||
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
        "mph lint: %d finding(s) in %s (waive a deliberate use "
        "with a '%s' comment on the same or preceding line)\n",
        findings, root.c_str(), std::string(kLintAllow).c_str());
    return Outcome::found;
  }
  std::printf("mph lint: %zu file(s) clean in %s\n", files.size(),
              root.c_str());
  return Outcome::clean;
}

}  // namespace mph_tools
