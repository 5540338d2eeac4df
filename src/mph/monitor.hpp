// monitor.hpp — mph_mon consumer side: parse published snapshots and
// render the top-style live view.
//
// The producer half lives in minimpi (MetricsRegistry + Monitor publish
// JSONL/Prometheus/socket); this header is everything a *viewer* needs:
// decode one JSONL line back into a MetricsSnapshot, fetch the latest
// line from a file or the monitor's AF_UNIX socket, and turn a pair of
// consecutive snapshots into per-component rates ("ocean: 1.2k msg/s,
// 40% blocked").  `mph top` is a thin loop over these functions;
// keeping them here makes the whole view pipeline unit-testable without
// spawning the CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/metrics.hpp"
#include "src/minimpi/watch/watch.hpp"

namespace mph::mon {

/// Decode one published JSONL line (MetricsSnapshot::to_jsonl output) back
/// into a snapshot.  Throws std::runtime_error on malformed JSON, and on a
/// well-formed document whose "kind" is not "mph_metrics" — the error
/// message names the expected format.
[[nodiscard]] minimpi::MetricsSnapshot parse_snapshot(
    const std::string& json_line);

/// True when `text` looks like an mph_metrics document or JSONL stream
/// (cheap check: first line is an object whose "kind" is "mph_metrics").
/// Used by `mph trace` to tell a metrics file from a Chrome trace export.
[[nodiscard]] bool looks_like_metrics(const std::string& text);

/// Last non-empty line of a (JSONL) file; nullopt when the file does not
/// exist or has no complete line yet.
[[nodiscard]] std::optional<std::string> last_jsonl_line(
    const std::string& path);

/// Rotation/truncation-tolerant variant: the newest line of `path` that
/// parses as an mph_metrics snapshot.  A live viewer can race the producer
/// (half-written tail) or reattach across a log rotation (torn first
/// line); both show up as malformed lines, which are skipped rather than
/// reported — the viewer resyncs on the next complete frame.  nullopt when
/// no line parses.
[[nodiscard]] std::optional<minimpi::MetricsSnapshot> last_valid_snapshot(
    const std::string& path);

/// Decode one mph_health JSONL line (HealthEvent::to_jsonl output) back
/// into an event.  Throws std::runtime_error on malformed JSON or a
/// document whose "kind" is not "mph_health".
[[nodiscard]] minimpi::watch::HealthEvent parse_health_event(
    const std::string& json_line);

/// True when `text` looks like an mph_health document or JSONL stream.
[[nodiscard]] bool looks_like_health(const std::string& text);

/// The trailing `max_events` health events of a JSONL file, oldest first
/// (malformed lines skipped — same tolerance contract as
/// last_valid_snapshot).  Empty when the file is missing or holds none.
[[nodiscard]] std::vector<minimpi::watch::HealthEvent> read_health_tail(
    const std::string& path, std::size_t max_events = 64);

/// Replay a health stream to the alerts still active at its end: the
/// newest fired, not-yet-cleared event per rule/subject, in firing order.
[[nodiscard]] std::vector<minimpi::watch::HealthEvent> active_alerts(
    const std::vector<minimpi::watch::HealthEvent>& events);

/// Connect to a monitor's AF_UNIX socket and read one snapshot line.
/// nullopt when the socket is gone (job finished) or unsupported on this
/// platform.
[[nodiscard]] std::optional<std::string> read_socket_line(
    const std::string& socket_path);

/// One component row of the top view.
struct TopRow {
  std::string component;
  int ranks = 0;
  int alive = 0;
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_high_water = 0;
  double msgs_per_s = 0.0;   ///< delivered rate over the interval (0 first)
  double bytes_per_s = 0.0;  ///< delivered-bytes rate over the interval
  double blocked_pct = 0.0;  ///< share of the interval spent blocked
};

/// The rendered model of one refresh: header totals plus one row per
/// component.  Rates are deltas between `prev` and `cur`; with no previous
/// snapshot they stay zero (first frame of a session).
struct TopView {
  std::uint64_t seq = 0;
  std::uint64_t wall_ms = 0;  ///< publisher's wall clock (0 on old streams)
  double uptime_s = 0.0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t wildcard_recvs = 0;
  std::uint64_t queue_high_water = 0;
  int ranks = 0;
  int alive = 0;
  std::vector<TopRow> rows;
};

/// Build the view model.  `prev` may be null (no rates yet); when given it
/// must be an earlier snapshot of the same job (cur.t_ns > prev->t_ns),
/// otherwise rates are left at zero rather than reported negative.
[[nodiscard]] TopView build_top_view(const minimpi::MetricsSnapshot* prev,
                                     const minimpi::MetricsSnapshot& cur);

/// Render the view as a fixed-width ASCII table (trailing newline
/// included) — what `mph top` prints every refresh.
[[nodiscard]] std::string render_top(const TopView& view);

// ---------------------------------------------------------------------------
// mph watch — the cross-job aggregator (farm pre-work): merge the
// metrics and health streams of several jobs into one console.
// ---------------------------------------------------------------------------

/// One watched job, as assembled by the CLI each refresh.
struct WatchJob {
  std::string source;  ///< the socket or JSONL path as given
  bool online = false;  ///< a snapshot was fetched this refresh
  std::optional<minimpi::MetricsSnapshot> snapshot;
  /// Health tail of the job's mph_health.jsonl (oldest first); empty when
  /// the job has no watch enabled or the file is not reachable.
  std::vector<minimpi::watch::HealthEvent> events;
};

/// The merged model of one refresh.
struct WatchView {
  std::vector<WatchJob> jobs;
  std::size_t active = 0;  ///< alerts active across all jobs
  /// Newest events across all jobs (ascending wall_ms, then per-job
  /// order), each tagged with the index of the job it came from.
  std::vector<std::pair<std::size_t, minimpi::watch::HealthEvent>> recent;
};

/// Merge the per-job inputs: computes the active-alert total and the
/// cross-job recent-event ribbon (at most `max_recent` entries).
[[nodiscard]] WatchView build_watch_view(std::vector<WatchJob> jobs,
                                         std::size_t max_recent = 8);

/// Render the merged view (one summary line + active alerts per job, then
/// the recent-event ribbon) — what `mph watch` prints.
[[nodiscard]] std::string render_watch(const WatchView& view);

}  // namespace mph::mon
