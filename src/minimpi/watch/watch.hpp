// watch.hpp — mph_watch: live health rules over mph_mon snapshots.
//
// mph_mon (metrics.hpp) publishes raw counters; mph_watch turns them into
// *judgements* while the job runs: a small ring of recent MetricsSnapshots
// gives per-interval deltas and rates, a declarative rule set evaluates
// each new snapshot against thresholds, and hysteresis (fire after N
// consecutive breaches, clear after M consecutive OKs) keeps a noisy
// boundary from flapping.  Rule firings and clears are emitted as
// structured HealthEvent JSONL (logs/mph_health.jsonl) and as Prometheus
// alert gauges appended to the monitor's exposition, so an operator —
// or the steering loop in run_coupled_component — can *act* on a stalled
// or slow component instead of reading counters after the fact.
//
// The rules (DESIGN.md §17):
//
//   * stall       — a component spent >= stall_blocked_pct% of the
//                   interval blocked AND delivered nothing (critical);
//   * queue       — a component's unmatched backlog is past queue_high
//                   (warning: unbounded queues are the job's memory);
//   * latency_p99 — p99 of the match-latency log2 histogram over the
//                   retained window crossed latency_p99_ns (warning);
//   * imbalance   — the busiest component's busy share is imbalance_ratio
//                   times the mean busy share (warning; this is the alert
//                   the scenario steering consumes to drive
//                   weights_from_metrics -> Rebalancer -> repartition);
//   * fault_burn  — the job burned >= fault_budget of its injected-fault /
//                   liveness-retry budget (warning; monotone, so it fires
//                   once and stays active);
//   * member_down — a rank's alive flag dropped (critical; immediate, no
//                   debounce — death is not noise).
//
// Flight recording: when a rule *fires* (transitions to active) at
// warning-or-worse severity and a flight recorder is installed (the Job
// wires Job::trace_report when tracing is on), the Watcher drains the
// TraceRing window, runs the mph_prof critical-path stitcher on it, writes
// the annotated Chrome JSON next to the health log, and stamps the event
// with the top blame component — every alert ships with *who*, not just
// *what*.
//
// Cost discipline (the Checker/Tracer/Metrics contract): watching is
// opt-in via JobOptions::watch / MINIMPI_WATCH.  When off, Job::watcher()
// is null and nothing is allocated or evaluated; rank hot paths are never
// touched either way — the Watcher runs entirely on the monitor-thread
// reader side of the metrics registry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/metrics.hpp"
#include "src/minimpi/trace.hpp"

namespace minimpi::watch {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Per-job watch configuration.  MINIMPI_WATCH is applied on top of it at
/// Job construction (see merged_with_env).
struct WatchOptions {
  /// Master switch: allocates the Watcher (and a metrics registry if
  /// monitoring alone did not already).
  bool enabled = false;

  /// stall: blocked share of the interval (percent) above which a
  /// component that also delivered nothing counts as stalled.
  double stall_blocked_pct = 80.0;

  /// queue: unmatched-backlog depth (summed over a component's ranks)
  /// counting as runaway growth.
  std::uint64_t queue_high = 64;

  /// latency_p99: match-latency p99 threshold over the retained window.
  std::uint64_t latency_p99_ns = 100'000'000;  // 100 ms

  /// latency_p99: minimum matches in the window before the percentile is
  /// trusted (a 2-sample p99 is noise).
  std::uint64_t latency_min_count = 16;

  /// imbalance: max/mean busy-share ratio across components that fires the
  /// steering alert.
  double imbalance_ratio = 2.0;

  /// fault_burn: cumulative fault count (fault-plan rules fired plus
  /// liveness retries burned) that flags the budget as burning.
  std::uint64_t fault_budget = 16;

  /// Hysteresis: consecutive breaching snapshots before a rule fires, and
  /// consecutive clean snapshots before an active alert clears.
  int fire_after = 2;
  int clear_after = 2;

  /// Snapshots retained for windowed derivations (p99, burn rate).
  std::size_t window = 32;

  /// Drain the trace ring and attach critical-path blame to every fired
  /// warning/critical event (needs tracing on; off saves the dump I/O).
  bool flight_record = true;

  /// Directory for the health JSONL and flight-record dumps (the monitor's
  /// dir by default — Job aligns them when only one was configured).
  std::string dir = "logs";

  [[nodiscard]] std::string health_path() const {
    return dir + "/mph_health.jsonl";
  }
  [[nodiscard]] std::string flight_path(std::uint64_t seq) const {
    return dir + "/mph_flight_" + std::to_string(seq) + ".json";
  }

  /// Apply a MINIMPI_WATCH-style value on top of these options:
  /// "1"/"on"/"true" enable; a comma/space list may add "stall=PCT",
  /// "queue=N", "p99ms=X", "imbalance=X", "faults=N", "fire=N" (>= 1),
  /// "clear=N" (>= 1), "window=N" (>= 2) and "dir=PATH", which also
  /// enable, and "noflight".  Unknown tokens and values that do not parse
  /// strictly are ignored.
  void apply(std::string_view text);

  /// apply(text) on default options.
  [[nodiscard]] static WatchOptions parse(std::string_view text);

  /// MINIMPI_WATCH applied on top of these options.
  [[nodiscard]] WatchOptions merged_with_env() const;
};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class Severity : std::uint8_t { info, warning, critical };

[[nodiscard]] const char* severity_name(Severity severity) noexcept;

/// One rule transition: fired (cleared == false) or cleared.  Serialized
/// as one JSONL line (kind == "mph_health") in the watch dir.
struct HealthEvent {
  /// Top-level "kind" marker of the JSONL line — how tooling tells a
  /// health stream from a metrics stream.
  static constexpr const char* kKind = "mph_health";

  std::uint64_t seq = 0;      ///< snapshot sequence the rule fired on
  std::uint64_t t_ns = 0;     ///< job clock of that snapshot
  std::uint64_t wall_ms = 0;  ///< wall-clock epoch milliseconds
  std::string rule;           ///< "stall", "queue", "latency_p99", ...
  Severity severity = Severity::warning;
  bool cleared = false;       ///< true for the recovery edge of an alert
  std::string subject;        ///< component (or "rank N") the rule judged
  double value = 0.0;         ///< measured value that breached
  double threshold = 0.0;     ///< configured threshold it breached
  std::string message;        ///< human-readable one-liner
  /// Flight-record attribution, set on fired warning/critical events when
  /// a recorder was installed: the top critical-path component and the
  /// annotated Chrome JSON the window was dumped to.
  std::string blame;
  std::string flight_file;

  /// One JSON object on a single line (no trailing newline).
  [[nodiscard]] std::string to_jsonl() const;
};

// ---------------------------------------------------------------------------
// Watcher
// ---------------------------------------------------------------------------

/// The rule engine.  Thread safe: the monitor thread feeds observe() every
/// publish interval, while steering code (or a test) may feed snapshots of
/// its own and query the alert state — all under one mutex; nothing here
/// runs on rank hot paths.
class Watcher {
 public:
  /// Drains the live trace rings for a flight-record dump (the Job wires
  /// Job::trace_report).  Must be safe to call while ranks still run.
  using FlightFn = std::function<TraceReport()>;

  explicit Watcher(WatchOptions options);

  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  [[nodiscard]] const WatchOptions& options() const noexcept {
    return options_;
  }

  /// Install the flight recorder (null disables dumps).
  void set_flight_recorder(FlightFn fn);

  /// Evaluate one snapshot against every rule; returns the events this
  /// snapshot produced (also recorded internally and appended to the
  /// health JSONL).  Snapshots must arrive with increasing seq — a stale
  /// or duplicate frame is ignored.
  std::vector<HealthEvent> observe(const MetricsSnapshot& snap);

  /// Every event recorded so far, in firing order.
  [[nodiscard]] std::vector<HealthEvent> events() const;

  /// Number of alerts active right now.
  [[nodiscard]] std::size_t active_alerts() const;

  /// Prometheus text for the alert gauges (mph_watch_alert per tracked
  /// rule/subject, plus mph_watch_events_total) — the monitor thread
  /// appends this to the exposition file every publish.
  [[nodiscard]] std::string alert_gauges() const;

  /// Steering handshake: true when an imbalance alert fired since the last
  /// call (consumed — the next call reports false until it fires again).
  /// The scenario drivers poll this at interval boundaries.
  [[nodiscard]] bool consume_imbalance_alert();

 private:
  struct RuleState {
    int breaches = 0;  ///< consecutive breaching snapshots
    int oks = 0;       ///< consecutive clean snapshots while active
    bool active = false;
  };

  /// One rule observation on one subject: breach=true counts toward
  /// firing, breach=false toward clearing.  Returns the event to emit
  /// (fired or cleared transition), if any.
  void judge(const std::string& rule, const std::string& subject, bool breach,
             Severity severity, double value, double threshold,
             const std::string& message, const MetricsSnapshot& snap,
             std::vector<HealthEvent>& out);

  void attach_flight_record(const MetricsSnapshot& snap,
                            std::vector<HealthEvent>& fired);
  void append_health_lines(const std::vector<HealthEvent>& events);

  WatchOptions options_;
  mutable std::mutex mutex_;
  FlightFn flight_;
  std::deque<MetricsSnapshot> ring_;  ///< oldest..newest retained snapshots
  std::map<std::string, RuleState> states_;  ///< keyed "rule/subject"
  std::vector<HealthEvent> events_;
  bool imbalance_pending_ = false;
  bool dir_ready_ = false;
};

}  // namespace minimpi::watch
