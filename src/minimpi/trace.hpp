// trace.hpp — mph_trace: always-available, low-overhead event tracing.
//
// Every rank of a traced job owns one fixed-capacity lock-free ring buffer
// of timestamped events (spans and instants): send/recv post+match,
// blocked-wait intervals, collectives, communicator creation, fault-plan
// firings, and MPH phase spans (handshake stages, registry broadcast,
// joint-communicator setup).  The thread-per-rank design makes this cheap —
// there is no cross-process merge step; JobReport::trace drains the rings
// into one Chrome trace-event JSON document that Perfetto and
// chrome://tracing load directly, one track per component rank.
//
// Off-path cost: tracing is enabled per job (JobOptions::trace or the
// MINIMPI_TRACE environment variable).  When off, Job::tracer() is null and
// the mailbox's observer seam (hooks.hpp) does not include the tracer, so
// every instrumentation point is a branch on a null pointer.
//
// Ring discipline: multi-producer (deliver-side events land on the
// *receiver's* ring from the sender's thread), drop-oldest.  A writer
// claims a slot with one relaxed fetch_add on the ring head and publishes
// the slot with a release store of its stamp; a reader accepts a slot only
// when the stamp matches the claimed index before AND after reading the
// fields, so a concurrent overwrite is detected and counted as dropped
// rather than surfacing a torn event.  Drains normally run after every
// rank thread joined, where the rings are quiescent and reads are exact.
//
// Memory-model contract (checked by mph_racer, DESIGN.md §14): the field
// stores are release and the field loads acquire.  The double stamp check
// alone is NOT enough under the C++11 model — with relaxed fields, a reader
// that observes a lapping writer's new field value is not obliged to see
// that writer's earlier stamp invalidation, so both stamp checks can still
// return the previous occupant's stamp and a mixed event would be accepted.
// The acquire field load synchronizes with the lapping writer's release
// field store, which makes its stamp=0 visible to the re-check.  On x86
// both orderings compile to plain loads/stores, so this costs nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/minimpi/hooks.hpp"
#include "src/minimpi/metrics.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Per-job tracing configuration.  MINIMPI_TRACE is applied on top of it
/// at Job construction (see merged_with_env).
struct TraceOptions {
  bool enabled = false;

  /// Events retained per rank.  When a rank records more, the oldest are
  /// dropped and the drop is counted (RankTrace::dropped) — tracing never
  /// blocks or allocates on the hot path.
  std::size_t ring_capacity = 8192;

  /// Apply a MINIMPI_TRACE-style value on top of these options:
  /// "1"/"on"/"all"/"true" enable; a comma/space list may add
  /// "capacity=N" (N > 0, also enables) to size the rings.  Unknown tokens
  /// and values that do not parse strictly are ignored.
  void apply(std::string_view text) noexcept;

  /// apply(text) on default options.
  [[nodiscard]] static TraceOptions parse(std::string_view text) noexcept;

  /// MINIMPI_TRACE applied on top of these options.
  [[nodiscard]] TraceOptions merged_with_env() const noexcept;
};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What an event records.  The category groups events in viewers; `name`
/// carries the specific label ("recv", "barrier", "handshake", ...).
enum class TraceOp : std::uint8_t {
  send,         ///< instant: envelope handed to the destination mailbox
  post_recv,    ///< instant: nonblocking receive posted
  recv,         ///< span: blocking receive/wait from call to match
  blocked,      ///< span: interval a rank spent blocked in a mailbox wait
  collective,   ///< span: one collective invocation
  comm_create,  ///< instant: communicator construction (fresh context)
  fault,        ///< instant: a fault-plan rule fired
  phase,        ///< span: an MPH phase (handshake stage, registry bcast, ...)
};

/// Viewer category string of an op ("p2p", "collective", ...).
[[nodiscard]] const char* trace_op_category(TraceOp op) noexcept;

/// Stable ids stamped into the `tag` field of MPH phase spans so trace
/// consumers (mph_prof, mph_proto) can classify phases without string
/// matching.  The launcher stamps rank_main; the MPH layer stamps the
/// rest.  Additive-only: consumers must ignore ids they do not know.
enum PhaseId : tag_t {
  kPhaseRankMain = 1,       ///< one per rank: entry-point start → exit
  kPhaseHandshake = 2,      ///< the whole MPH handshake
  kPhaseSignatures = 3,     ///< signature_allgather stage
  kPhaseLayout = 4,         ///< layout_resolve stage
  kPhaseCommSetup = 5,      ///< comm_setup stage
  kPhaseRegistry = 6,       ///< registry_resolve broadcast
  kPhaseCommJoin = 7,       ///< MPH_comm_join
};

/// One drained event.  `name` points to static storage (string literals at
/// the record sites) — events never own memory.
struct TraceEvent {
  std::uint64_t t_start_ns = 0;  ///< nanoseconds since the tracer epoch
  std::uint64_t t_end_ns = 0;    ///< == t_start_ns for instants
  TraceOp op = TraceOp::send;
  bool span = false;         ///< span (interval) vs instant
  const char* name = "";     ///< static-storage label
  rank_t peer = any_source;  ///< world rank of the other side (-1: none)
  context_t context = kWorldContext;
  tag_t tag = any_tag;
  std::uint64_t bytes = 0;  ///< payload volume, when meaningful
  /// Per-message flow id: a send instant and the receive event that
  /// matched that exact envelope carry the same nonzero id (stamped by
  /// Tracer::next_flow at the send site, carried by the Envelope).  0 for
  /// events with no message identity.  This is what lets mph_prof stitch
  /// cross-rank happens-before edges out of two per-rank timelines.
  std::uint64_t flow = 0;
};

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Fixed-capacity, multi-producer, drop-oldest event ring.  See the file
/// comment for the claim/stamp protocol.  Readers may snapshot while
/// writers are active (the tsan contention test does); torn slots are
/// counted as dropped, never returned.
class alignas(64) TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Record one event: wait-free (one fetch_add plus release field stores).
  void record(const TraceEvent& event) noexcept;

  struct Snapshot {
    std::vector<TraceEvent> events;  ///< oldest first, in claim order
    std::uint64_t dropped = 0;       ///< overwritten + torn slots
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Events ever recorded (monotone; may exceed capacity).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

 private:
  /// All fields atomic so concurrent overwrite during a live snapshot is a
  /// detected data race by construction, not an undefined one.  The stamp
  /// holds claim-index + 1 and is written last (release) / checked twice;
  /// fields are stored release and loaded acquire so observing a lapping
  /// writer's field forces its stamp invalidation into view (see the file
  /// comment).
  struct Slot {
    mph::atomic<std::uint64_t> stamp{0};
    mph::atomic<std::uint64_t> t_start{0};
    mph::atomic<std::uint64_t> t_end{0};
    mph::atomic<std::uint64_t> bytes{0};
    mph::atomic<std::uint64_t> flow{0};
    mph::atomic<const char*> name{""};
    mph::atomic<std::int32_t> op_and_kind{0};  ///< op | (span ? 0x100 : 0)
    mph::atomic<std::int32_t> peer{any_source};
    mph::atomic<std::int32_t> tag{any_tag};
    mph::atomic<std::uint32_t> context{kWorldContext};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  mph::atomic<std::uint64_t> head_{0};
};

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// The per-job trace collector: one ring per world rank plus mutex-guarded
/// cold metadata (track names, named counters).  Null when tracing is off.
/// As an Observer it records the mailbox's send, post, match, receive and
/// blocked events and the fault injector's firings.
class Tracer final : public Observer {
 public:
  /// `clock` (the job clock; it must outlive the tracer) stamps events.
  Tracer(int world_size, TraceOptions options, const JobClock& clock);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] const TraceOptions& options() const noexcept {
    return options_;
  }

  /// The clock events are stamped with (the job clock).
  [[nodiscard]] const JobClock& clock() const noexcept { return clock_; }

  /// Record an instant on `ring`'s timeline (out-of-range rings are
  /// ignored).  `name` must point to static storage.
  void instant(rank_t ring, TraceOp op, const char* name,
               rank_t peer = any_source, context_t context = kWorldContext,
               tag_t tag = any_tag, std::uint64_t bytes = 0,
               std::uint64_t flow = 0) noexcept;

  /// Record a span that started at `t_start_ns` (from clock()) and ends
  /// now.  Spans are recorded whole at their end, so no begin/end pairing
  /// is ever needed downstream.
  void span_end(rank_t ring, TraceOp op, const char* name,
                std::uint64_t t_start_ns, rank_t peer = any_source,
                context_t context = kWorldContext, tag_t tag = any_tag,
                std::uint64_t bytes = 0, std::uint64_t flow = 0) noexcept;

  /// Next flow id for a message sent by world rank `src`: a nonzero id
  /// unique within the job ((src + 1) << 40 | per-rank sequence), stamped
  /// into the send event and carried by the envelope so the matching recv
  /// records the same id.  Wait-free: one relaxed fetch_add.
  [[nodiscard]] std::uint64_t next_flow(rank_t src) noexcept;

  /// Name a rank's timeline track ("component[instance]:local_rank" — MPH
  /// sets this during the handshake).  Thread safe; last writer wins.
  void set_track_name(rank_t world_rank, std::string name);

  /// Attach a named per-rank counter to the drained report (e.g. output
  /// lines per OutputChannel).  Cold path only.
  void add_counter(rank_t world_rank, std::string name, std::uint64_t value);

  [[nodiscard]] std::size_t ring_count() const noexcept {
    return rings_.size();
  }
  [[nodiscard]] const TraceRing& ring(std::size_t i) const {
    return *rings_[i];
  }

  // --- Observer events ----------------------------------------------------

  /// Stamps the flow id; records "send" ("control_send" for control tags).
  void envelope_sent(Envelope& env, rank_t dest) override;
  /// Posted receives only: the "recv_match" instant.
  std::exception_ptr envelope_matched(rank_t owner, const Envelope& env,
                                      const TypeSig& expected,
                                      std::size_t capacity,
                                      bool posted) override;
  void recv_posted(rank_t owner, rank_t source, context_t ctx, tag_t tag,
                   std::size_t capacity) override;
  void recv_completed(rank_t owner, const char* op, const Status& status,
                      context_t ctx, std::uint64_t flow, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) override;
  void wait_unblocked(rank_t owner, const BlockedWait& wait,
                      std::uint64_t t1_ns) override;
  void fault_fired(rank_t rank, const char* name, rank_t peer, context_t ctx,
                   tag_t tag, std::uint64_t detail) override;

 private:
  friend class Job;  // drains rings + metadata into a TraceReport

  /// Record one event on `ring`'s timeline (out-of-range rings ignored).
  void record(rank_t ring, const TraceEvent& event) noexcept;

  TraceOptions options_;
  const JobClock& clock_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  /// Per-rank flow-id sequences (relaxed — ordering comes from the events).
  /// One cache line each: ranks on different cores never share one.
  struct alignas(64) FlowSeq {
    mph::atomic<std::uint64_t> next{0};
  };
  std::unique_ptr<FlowSeq[]> flow_seq_;

  mutable std::mutex meta_mutex_;
  std::vector<std::string> track_names_;
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> counters_;
};

/// RAII span helper: records a span on destruction when the tracer is
/// non-null, nothing otherwise.  Safe to construct with tracer == nullptr.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, rank_t ring, TraceOp op, const char* name,
            tag_t tag = any_tag) noexcept
      : tracer_(tracer),
        ring_(ring),
        op_(op),
        tag_(tag),
        name_(name),
        t0_(tracer != nullptr ? tracer->clock().now_ns() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->span_end(ring_, op_, name_, t0_, any_source, kWorldContext,
                        tag_);
    }
  }

 private:
  Tracer* tracer_;
  rank_t ring_;
  TraceOp op_;
  tag_t tag_;
  const char* name_;
  std::uint64_t t0_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Nanoseconds as a microsecond decimal ("1234.567") — the trace-event
/// `ts`/`dur` unit — without any floating-point rounding.
[[nodiscard]] std::string us_string(std::uint64_t ns);

/// One rank's drained timeline.
struct RankTrace {
  rank_t world_rank = -1;
  std::string track;               ///< timeline name (component:local_rank)
  std::vector<TraceEvent> events;  ///< oldest first
  std::uint64_t dropped = 0;       ///< events lost to ring overflow
  std::uint64_t queue_high_water = 0;  ///< this mailbox's backlog peak
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Everything JobReport::trace carries: per-rank timelines plus the job
/// counters the rollup needs, with the analyses computed on demand.
struct TraceReport {
  std::vector<RankTrace> ranks;

  /// Job-wide communication counters — the same CommStats Job::stats()
  /// returns (and JobReport/MetricsSnapshot carry), embedded rather than
  /// duplicated so trace rollups and live metrics share one source of
  /// truth for message/context/wildcard counts.
  CommStats comm;

  /// Messages/bytes exchanged between component pairs (tracks stripped of
  /// their ":local_rank" suffix), aggregated from send instants.
  struct Traffic {
    std::string src;
    std::string dest;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] std::vector<Traffic> component_traffic() const;

  /// Blocked-time breakdown of one rank: time blocked in point-to-point
  /// waits, time blocked inside collectives, and time inside the MPH
  /// handshake phase (blocked spans within the handshake interval count as
  /// handshake, not as the other two).
  struct RankBlocked {
    rank_t world_rank = -1;
    std::string track;
    std::uint64_t recv_wait_ns = 0;
    std::uint64_t collective_wait_ns = 0;
    std::uint64_t handshake_ns = 0;
    [[nodiscard]] std::uint64_t total_ns() const noexcept {
      return recv_wait_ns + collective_wait_ns + handshake_ns;
    }
  };
  [[nodiscard]] std::vector<RankBlocked> blocked_breakdown() const;

  /// The component of a track name ("ocean[2]:1" -> "ocean[2]").
  [[nodiscard]] static std::string component_of(std::string_view track);

  /// Chrome trace-event JSON: loads in Perfetto / chrome://tracing (one
  /// named track per rank); the metrics rollup is embedded under the
  /// top-level "mph" key, which trace viewers ignore and
  /// `mph trace` reads back.
  [[nodiscard]] std::string to_chrome_json() const;
};

}  // namespace minimpi
