// metrics.hpp — mph_mon: always-cheap live runtime telemetry.
//
// mph_trace (trace.hpp) answers "what happened" after the job: full event
// timelines, drained post-mortem.  mph_mon answers "what is happening
// right now": a registry of monotonic counters, gauges, and fixed-bucket
// log2 histograms that a monitor thread snapshots periodically and
// publishes while the job runs — the modern tracing/metrics split, applied
// to the paper's long coupled-component jobs where an operator needs to
// see *live* which component is the bottleneck, whose queues are growing,
// and who is blocked.
//
// Cost discipline (the observer-seam contract of hooks.hpp):
//
//   * Off path: monitoring is enabled per job (JobOptions::monitor or the
//     MINIMPI_MONITOR environment variable).  When off, Job::metrics() is
//     null, the registry is not on the mailbox's observer seam, and every
//     instrumentation point is one branch on a null pointer — nothing is
//     allocated, counted, or timed.
//   * On path: every hot-path update is a relaxed atomic add/store into a
//     per-rank, cache-line-padded slot block.  No locks, no allocation.
//     Aggregation (summing ranks, filling histograms into a snapshot)
//     happens entirely on the *reader* side, in the monitor thread.
//
// Snapshot consistency: relaxed counters mean a snapshot taken while
// ranks are running is not a consistent cut — `delivered` may momentarily
// exceed `sends`, a histogram's count may trail its buckets by an update.
// Each individual load is still atomic (no torn values, no data races —
// the tsan contention test exercises exactly this), and every counter is
// monotone, so rates computed between two snapshots are exact over the
// interval.  The final snapshot in JobReport::metrics is taken after all
// rank threads joined and is exact.
//
// Histogram contract (checked by mph_racer, DESIGN.md §14): within one
// rank's match-latency histogram, `count` never runs ahead of the data.
// The writer updates sum, then the bucket, then count with release; the
// reader loads count first with acquire, then buckets and sum.  So for any
// live snapshot: buckets_total >= count and sum covers at least the
// counted events — a consumer dividing sum/count or averaging bucket
// midpoints never sees phantom events (count = 1 with empty buckets was
// possible under the original all-relaxed ordering; the racer's
// metrics_histogram litmus finds that in two executions).  Counters
// outside the histogram stay fully relaxed: they are independent monotone
// values with no cross-field invariant.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/minimpi/hooks.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Per-job monitoring configuration.  MINIMPI_MONITOR is applied on top of
/// it at Job construction (see merged_with_env).
struct MonitorOptions {
  /// Master switch: allocates the registry and (when interval > 0) starts
  /// the monitor thread.
  bool enabled = false;

  /// Snapshot/publish period of the monitor thread.  Zero keeps the
  /// registry collecting (and JobReport::metrics populated) without any
  /// thread or file output — what most tests want.
  std::chrono::milliseconds interval{100};

  /// Directory the monitor publishes into (created on demand, like the
  /// output redirection layer's default).
  std::string dir = "logs";

  /// Serve the latest snapshot over a local AF_UNIX socket at
  /// socket_path() while the job is alive (POSIX only; bind failures
  /// disable the socket with a diagnostic, never the job).
  bool socket = true;

  /// Published file/socket names under `dir`.
  [[nodiscard]] std::string jsonl_path() const {
    return dir + "/mph_metrics.jsonl";
  }
  [[nodiscard]] std::string exposition_path() const {
    return dir + "/mph_metrics.prom";
  }
  [[nodiscard]] std::string socket_path() const {
    return dir + "/mph_monitor.sock";
  }

  /// Apply a MINIMPI_MONITOR-style value on top of these options:
  /// "1"/"on"/"true" enable; a comma/space list may add "interval=N"
  /// (milliseconds) and "dir=PATH", which also enable, and "nosocket".
  /// Unknown tokens and values that do not parse strictly are ignored.
  void apply(std::string_view text);

  /// apply(text) on default options.
  [[nodiscard]] static MonitorOptions parse(std::string_view text);

  /// MINIMPI_MONITOR applied on top of these options.
  [[nodiscard]] MonitorOptions merged_with_env() const;
};

// ---------------------------------------------------------------------------
// Job-wide communication counters (single source of truth)
// ---------------------------------------------------------------------------

/// Aggregate communication counters of one job (monotone; snapshot with
/// Job::stats()).  This is the one job-wide counter struct: JobReport
/// carries it directly, TraceReport embeds it for the Chrome-JSON rollup,
/// and MetricsSnapshot embeds it so live telemetry and post-mortem traces
/// never disagree about message counts.
struct CommStats {
  std::uint64_t messages = 0;            ///< envelopes delivered
  std::uint64_t payload_bytes = 0;       ///< payload volume delivered
  std::uint64_t contexts_allocated = 0;  ///< communicators created job-wide
  /// Largest unmatched-envelope backlog any single mailbox ever reached —
  /// backpressure visibility for the unbounded queues.
  std::uint64_t queue_high_water = 0;
  /// Messages delivered per communicator context id, ascending by context —
  /// how traffic splits across COMM_WORLD and derived communicators.
  std::vector<std::pair<context_t, std::uint64_t>> messages_by_context;
  /// Wildcard (ANY_SOURCE) receive operations issued: blocking receives,
  /// probes, and posted receives with an unspecified source (nonblocking
  /// probes count on a hit, so spin loops do not inflate the number).
  std::uint64_t wildcard_recvs = 0;
};

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Fixed bucket count of every registry histogram: bucket k holds values
/// whose bit width is k (bucket 0: value 0; bucket k: 2^(k-1) <= v < 2^k),
/// i.e. log2-spaced upper bounds 1, 2, 4, ... — 40 buckets span about 9
/// minutes in nanoseconds, plenty for a match latency.
inline constexpr std::size_t kMetricsHistogramBuckets = 40;

/// Bucket index of `value` (see kMetricsHistogramBuckets).
[[nodiscard]] constexpr std::size_t metrics_histogram_bucket(
    std::uint64_t value) noexcept {
  std::size_t width = 0;
  while (value != 0) {
    value >>= 1U;
    ++width;
  }
  return width < kMetricsHistogramBuckets ? width
                                          : kMetricsHistogramBuckets - 1;
}

/// Inclusive upper bound of histogram bucket `i` (2^i - ... ; bucket 0 is
/// exactly 0, the last bucket is unbounded).
[[nodiscard]] constexpr std::uint64_t metrics_histogram_upper(
    std::size_t i) noexcept {
  if (i == 0) return 0;
  if (i >= 63) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// An aggregated (snapshot-side) histogram.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kMetricsHistogramBuckets> buckets{};
};

// ---------------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------------

/// One rank's aggregated metrics at snapshot time.
struct RankMetrics {
  rank_t world_rank = -1;
  std::string component;  ///< handshake component name (exec label before)
  bool alive = true;      ///< liveness flag (false once the rank failed)
  std::uint64_t sends = 0;            ///< envelopes this rank handed off
  std::uint64_t send_bytes = 0;
  std::uint64_t delivered = 0;        ///< envelopes delivered *to* this rank
  std::uint64_t delivered_bytes = 0;
  std::uint64_t matches = 0;          ///< receive completions measured
  std::uint64_t collectives = 0;      ///< collective invocations entered
  std::uint64_t faults = 0;           ///< fault-plan rules fired on this rank
  std::uint64_t blocked_ns = 0;       ///< total time blocked in mailbox waits
  std::uint64_t queue_depth = 0;      ///< unmatched backlog right now (gauge)
  std::uint64_t queue_high_water = 0; ///< largest backlog ever (gauge)
  std::uint64_t handshake_ns = 0;     ///< MPH handshake duration (gauge)
  HistogramData match_latency;        ///< blocking-receive wait -> match, ns
  /// Registered probe values (e.g. output_lines(<path>) per OutputChannel).
  std::vector<std::pair<std::string, std::uint64_t>> values;
};

/// Per-component rollup computed from the rank rows.
struct ComponentMetrics {
  std::string component;
  int ranks = 0;
  int alive = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t blocked_ns = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_high_water = 0;
};

/// One published snapshot: job-wide counters plus every rank's row.
/// Serialized as one JSONL line (kind == "mph_metrics") and as a
/// Prometheus text exposition.
struct MetricsSnapshot {
  /// Top-level "kind" marker of the JSONL line — how tooling tells a
  /// metrics file from a Chrome trace export.
  static constexpr const char* kKind = "mph_metrics";

  std::uint64_t seq = 0;   ///< snapshot sequence number (1-based)
  std::uint64_t t_ns = 0;  ///< nanoseconds since the registry epoch
  /// Wall-clock epoch milliseconds at snapshot time.  Together with `seq`
  /// this makes every JSONL line self-describing: a reader derives rates
  /// from the stamps on the lines, never from its own arrival times, and
  /// detects a re-served line (same seq) instead of computing a zero rate.
  std::uint64_t wall_ms = 0;
  CommStats comm;          ///< job-wide counters (Job::stats())
  std::vector<RankMetrics> ranks;

  /// Rank rows aggregated by component, in first-seen (rank) order.
  [[nodiscard]] std::vector<ComponentMetrics> by_component() const;

  /// One JSON object on a single line (no trailing newline).
  [[nodiscard]] std::string to_jsonl() const;

  /// Prometheus text exposition format (one document).
  [[nodiscard]] std::string to_prometheus() const;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The per-job metrics collector: one cache-line-padded block of relaxed
/// atomics per world rank, plus mutex-guarded cold metadata (component
/// names, value probes).  Null when monitoring is off.  As an Observer it
/// counts the mailbox's sends, deliveries, receive latencies, backlog and
/// blocked time, and the fault injector's firings.
class MetricsRegistry final : public Observer {
 public:
  /// `clock` is the job clock blocked waits and latencies are measured on;
  /// a standalone registry keeps its own.
  explicit MetricsRegistry(int world_size, JobClock clock = {});

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  // --- hot path (relaxed atomics, no locks) --------------------------------

  void on_send(rank_t rank, std::uint64_t bytes) noexcept;
  void on_delivered(rank_t rank, std::uint64_t bytes) noexcept;
  /// A receive completed after waiting `latency_ns` (count + histogram).
  void on_match(rank_t rank, std::uint64_t latency_ns) noexcept;
  void on_collective(rank_t rank) noexcept;
  void on_fault(rank_t rank) noexcept;
  void add_blocked_ns(rank_t rank, std::uint64_t ns) noexcept;
  /// Current unmatched backlog of the rank's mailbox; also maintains the
  /// high-water gauge.
  void set_queue_depth(rank_t rank, std::uint64_t depth) noexcept;

  // --- Observer events (hot path; the same relaxed updates) ----------------

  /// Counted before any interposer: a dropped send is still a send.
  void envelope_sent(Envelope& env, rank_t dest) override;
  void envelope_delivered(rank_t owner, const Envelope& env) override;
  void queue_depth_changed(rank_t owner, std::size_t depth) override;
  /// The receive's [t0, t1] interval is its match latency.
  void recv_completed(rank_t owner, const char* op, const Status& status,
                      context_t ctx, std::uint64_t flow, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) override;
  /// While a wait is open read_rank folds its time into blocked_ns, so a
  /// live snapshot shows a *stuck* rank's blocking as it accrues (mph_watch's
  /// stall rule depends on it).
  void wait_blocked(rank_t owner, const BlockedWait& wait) override;
  void wait_unblocked(rank_t owner, const BlockedWait& wait,
                      std::uint64_t t1_ns) override;
  void fault_fired(rank_t rank, const char* name, rank_t peer, context_t ctx,
                   tag_t tag, std::uint64_t detail) override;

  // --- cold path (mutex-guarded; handshake / setup only) -------------------

  /// Name a rank's component ("ocean", "Ocean2" — MPH sets this during the
  /// handshake).  Thread safe; last writer wins.
  void set_component(rank_t rank, std::string name);
  [[nodiscard]] std::string component(rank_t rank) const;

  /// MPH handshake duration of this rank (gauge; relaxed store).
  void set_handshake_ns(rank_t rank, std::uint64_t ns) noexcept;

  /// Register a named value probe sampled at every snapshot (e.g. the
  /// line counter of an OutputChannel).  The callable must stay valid for
  /// the job's lifetime — capture shared state by shared_ptr.
  void add_probe(rank_t rank, std::string name,
                 std::function<std::uint64_t()> probe);

  // --- reader side ---------------------------------------------------------

  /// Aggregate one rank's slots (component/alive left at defaults — the
  /// Job fills those from its own liveness state).
  [[nodiscard]] RankMetrics read_rank(rank_t rank) const;

  /// Next snapshot sequence number (monotone, starts at 1).
  [[nodiscard]] std::uint64_t next_seq() noexcept {
    return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  /// One rank's hot slots.  Padded to a cache line so two ranks hammering
  /// their own counters never share a line.
  struct alignas(64) RankSlots {
    mph::atomic<std::uint64_t> sends{0};
    mph::atomic<std::uint64_t> send_bytes{0};
    mph::atomic<std::uint64_t> delivered{0};
    mph::atomic<std::uint64_t> delivered_bytes{0};
    mph::atomic<std::uint64_t> collectives{0};
    mph::atomic<std::uint64_t> faults{0};
    mph::atomic<std::uint64_t> blocked_ns{0};
    mph::atomic<std::uint64_t> blocked_since{0};  ///< 0 = no wait open
    mph::atomic<std::uint64_t> queue_depth{0};
    mph::atomic<std::uint64_t> queue_high_water{0};
    mph::atomic<std::uint64_t> handshake_ns{0};
    mph::atomic<std::uint64_t> latency_count{0};
    mph::atomic<std::uint64_t> latency_sum{0};
    std::array<mph::atomic<std::uint64_t>, kMetricsHistogramBuckets>
        latency_buckets{};
  };

  [[nodiscard]] bool valid(rank_t rank) const noexcept {
    return rank >= 0 && rank < world_size_;
  }

  int world_size_;
  JobClock clock_;
  std::unique_ptr<RankSlots[]> slots_;
  mph::atomic<std::uint64_t> seq_{0};

  mutable std::mutex meta_mutex_;
  std::vector<std::string> components_;
  std::vector<std::vector<
      std::pair<std::string, std::function<std::uint64_t()>>>>
      probes_;
};

// ---------------------------------------------------------------------------
// Monitor thread
// ---------------------------------------------------------------------------

/// Periodic snapshot publisher.  Owns a background thread that, every
/// MonitorOptions::interval: builds a snapshot (through the callback the
/// Job provides), appends it to the JSONL file, rewrites the Prometheus
/// exposition file, and answers AF_UNIX connections with the latest
/// JSONL line.  stop() joins the thread and publishes one final snapshot
/// so the files always end on the job's last state.
class Monitor {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;
  /// Optional per-publish observer (mph_watch): sees every snapshot the
  /// thread takes and returns extra Prometheus text (alert gauges)
  /// appended to the exposition file.  Runs on the monitor thread only.
  using ObserveFn = std::function<std::string(const MetricsSnapshot&)>;

  Monitor(MonitorOptions options, SnapshotFn snapshot,
          ObserveFn observe = nullptr);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Join the publisher thread and write the final snapshot.  Idempotent;
  /// called by the Job before its mailboxes are torn down.
  void stop();

  [[nodiscard]] const MonitorOptions& options() const noexcept {
    return options_;
  }

 private:
  void run();
  void publish(const MetricsSnapshot& snap);
  void serve_socket(const std::string& line);

  MonitorOptions options_;
  SnapshotFn snapshot_;
  ObserveFn observe_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool stopped_ = false;
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace minimpi
