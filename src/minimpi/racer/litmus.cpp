#include "src/minimpi/racer/litmus.hpp"

#include <cstdint>

#include "src/minimpi/metrics.hpp"
#include "src/minimpi/trace.hpp"

namespace minimpi::racer {

namespace {

// ---------------------------------------------------------------------------
// Classics — validate the checker against the textbook shapes.
// ---------------------------------------------------------------------------

/// Store buffering, relaxed: all four outcomes (including r1 == r2 == 0)
/// are allowed, so there is nothing to assert per execution — the case
/// exists so `--require-complete` proves the engine enumerates the full
/// space (tests/racer/test_engine.cpp additionally checks that all four
/// outcomes really occur).
void sb_relaxed() {
  mph::atomic<int> x{0};
  mph::atomic<int> y{0};
  name_location(&x, "x");
  name_location(&y, "y");
  int r1 = -1;
  int r2 = -1;
  run_threads({[&] {
                 x.store(1, std::memory_order_relaxed);
                 r1 = y.load(std::memory_order_relaxed);
               },
               [&] {
                 y.store(1, std::memory_order_relaxed);
                 r2 = x.load(std::memory_order_relaxed);
               }});
  RACER_CHECK((r1 == 0 || r1 == 1) && (r2 == 0 || r2 == 1),
              "sb_relaxed: impossible value");
}

/// Store buffering, seq_cst: the r1 == r2 == 0 outcome is forbidden —
/// some total order over the four operations puts one store first.
void sb_seq_cst() {
  mph::atomic<int> x{0};
  mph::atomic<int> y{0};
  name_location(&x, "x");
  name_location(&y, "y");
  int r1 = -1;
  int r2 = -1;
  run_threads({[&] {
                 x.store(1);
                 r1 = y.load();
               },
               [&] {
                 y.store(1);
                 r2 = x.load();
               }});
  RACER_CHECK(r1 == 1 || r2 == 1, "sb_seq_cst: both threads read 0");
}

/// Message passing, release/acquire: observing the flag implies observing
/// the data — the shape every publish protocol in src/minimpi relies on.
void mp_rel_acq() {
  mph::atomic<int> data{0};
  mph::atomic<int> flag{0};
  name_location(&data, "data");
  name_location(&flag, "flag");
  run_threads({[&] {
                 data.store(42, std::memory_order_relaxed);
                 flag.store(1, std::memory_order_release);
               },
               [&] {
                 if (flag.load(std::memory_order_acquire) == 1) {
                   RACER_CHECK(data.load(std::memory_order_relaxed) == 42,
                               "mp_rel_acq: stale data behind the flag");
                 }
               }});
}

/// Message passing with a relaxed flag store: the bug mp_rel_acq fixes.
/// The checker must find the stale read (expect_failure).
void mp_relaxed() {
  mph::atomic<int> data{0};
  mph::atomic<int> flag{0};
  name_location(&data, "data");
  name_location(&flag, "flag");
  run_threads({[&] {
                 data.store(42, std::memory_order_relaxed);
                 flag.store(1, std::memory_order_relaxed);  // bug: no release
               },
               [&] {
                 if (flag.load(std::memory_order_acquire) == 1) {
                   RACER_CHECK(data.load(std::memory_order_relaxed) == 42,
                               "mp_relaxed: stale data behind the flag");
                 }
               }});
}

/// Coherence: per-location total order means re-reads never go backward,
/// even fully relaxed.
void coherence() {
  mph::atomic<int> x{0};
  name_location(&x, "x");
  run_threads({[&] {
                 x.store(1, std::memory_order_relaxed);
                 x.store(2, std::memory_order_relaxed);
               },
               [&] {
                 const int a = x.load(std::memory_order_relaxed);
                 const int b = x.load(std::memory_order_relaxed);
                 RACER_CHECK(b >= a, "coherence: re-read went backward");
               }});
}

// ---------------------------------------------------------------------------
// Structures — the repo's real lock-free code, compiled under MPH_RACER.
// ---------------------------------------------------------------------------

/// A ring event is internally consistent when every payload field carries
/// the same encoded value — a torn (mixed-writer) event cannot satisfy
/// this because the two writers encode different values everywhere.
void check_ring_event(const TraceEvent& ev, const char* litmus) {
  RACER_CHECK(ev.t_start_ns == ev.t_end_ns && ev.t_start_ns == ev.bytes,
              "torn ring event: payload fields from different writers");
  (void)litmus;
}

TraceEvent ring_event(std::uint64_t value, const char* name) {
  TraceEvent ev;
  ev.t_start_ns = value;
  ev.t_end_ns = value;
  ev.bytes = value;
  ev.op = TraceOp::send;
  ev.span = false;
  ev.name = name;
  return ev;
}

/// Single producer, concurrent snapshot: the reader only ever sees whole
/// events, oldest first, and the post-join drain is exact.
void trace_ring_spsc() {
  TraceRing ring(2);
  TraceRing::Snapshot live;
  run_threads({[&] {
                 ring.record(ring_event(1, "a"));
                 ring.record(ring_event(2, "b"));
               },
               [&] { live = ring.snapshot(); }});
  for (const TraceEvent& ev : live.events) {
    check_ring_event(ev, "trace_ring_spsc");
    RACER_CHECK(ev.bytes == 1 || ev.bytes == 2,
                "trace_ring_spsc: unknown event value");
  }
  if (live.events.size() == 2) {
    RACER_CHECK(live.events[0].bytes == 1 && live.events[1].bytes == 2,
                "trace_ring_spsc: events out of claim order");
  }
  const TraceRing::Snapshot final = ring.snapshot();
  RACER_CHECK(final.events.size() == 2 && final.dropped == 0,
              "trace_ring_spsc: quiescent drain must be exact");
}

/// The lapping case the release/acquire field orderings exist for: a
/// capacity-1 ring where the second record overwrites the first while a
/// reader snapshots.  The reader may drop the slot, or return event A or
/// event B whole — never a mix (see trace.hpp's memory-model contract;
/// mutant_relaxed_publish is the same shape with the bug re-seeded).
void trace_ring_lap() {
  TraceRing ring(1);
  TraceRing::Snapshot live;
  run_threads({[&] {
                 ring.record(ring_event(1, "a"));
                 ring.record(ring_event(2, "b"));  // laps the first event
               },
               [&] { live = ring.snapshot(); }});
  for (const TraceEvent& ev : live.events) {
    check_ring_event(ev, "trace_ring_lap");
  }
  const TraceRing::Snapshot final = ring.snapshot();
  RACER_CHECK(final.dropped == 1 && final.events.size() == 1 &&
                  final.events[0].bytes == 2,
              "trace_ring_lap: quiescent drain must keep only the lap");
}

/// Two producers (the deliver path records on the receiver's ring from
/// the sender's thread) racing the claim fetch_add: claims must be
/// distinct, so the quiescent drain holds both events, one of each value.
void trace_ring_mpsc() {
  TraceRing ring(2);
  run_threads({[&] { ring.record(ring_event(1, "a")); },
               [&] { ring.record(ring_event(2, "b")); }});
  RACER_CHECK(ring.recorded() == 2, "trace_ring_mpsc: lost a claim");
  const TraceRing::Snapshot final = ring.snapshot();
  RACER_CHECK(final.events.size() == 2 && final.dropped == 0,
              "trace_ring_mpsc: quiescent drain must hold both events");
  for (const TraceEvent& ev : final.events) {
    check_ring_event(ev, "trace_ring_mpsc");
  }
  RACER_CHECK(final.events[0].bytes + final.events[1].bytes == 3,
              "trace_ring_mpsc: duplicate or missing event value");
}

/// Two producers lap a capacity-1 ring while a snapshot runs: both claim
/// slot 0, so the later claim must be what a quiescent drain returns.  The
/// live reader may drop the slot or return either event whole.  This is
/// a known bug (expect_failure): a producer that claims first but
/// publishes last leaves its stale stamp in the slot, and the drain drops
/// it — TraceRing.ConcurrentProducersAndSnapshots seeing 63 of 64 slots.
void trace_ring_mpsc_lap() {
  TraceRing ring(1);
  TraceRing::Snapshot live;
  run_threads({[&] { live = ring.snapshot(); },
               [&] { ring.record(ring_event(1, "a")); },
               [&] { ring.record(ring_event(2, "b")); }});
  for (const TraceEvent& ev : live.events) {
    check_ring_event(ev, "trace_ring_mpsc_lap");
  }
  const TraceRing::Snapshot final = ring.snapshot();
  RACER_CHECK(final.dropped == 1 && final.events.size() == 1,
              "trace_ring_mpsc_lap: quiescent drain must keep the later "
              "claim");
}

/// The histogram contract from metrics.hpp: a live read_rank never sees
/// count running ahead of the buckets or the sum (no phantom events).
void metrics_histogram() {
  MetricsRegistry reg(1);
  RankMetrics live;
  run_threads({[&] { reg.on_match(0, 5); },
               [&] { live = reg.read_rank(0); }});
  std::uint64_t buckets_total = 0;
  for (const std::uint64_t b : live.match_latency.buckets) buckets_total += b;
  RACER_CHECK(buckets_total >= live.match_latency.count,
              "metrics_histogram: phantom event (count ahead of buckets)");
  RACER_CHECK(live.match_latency.sum >= 5 * live.match_latency.count,
              "metrics_histogram: phantom event (count ahead of sum)");
  const RankMetrics final = reg.read_rank(0);
  RACER_CHECK(final.match_latency.count == 1 && final.match_latency.sum == 5,
              "metrics_histogram: quiescent read must be exact");
}

/// Plain counters are relaxed fetch_adds: concurrent updates are never
/// lost and the quiescent read is exact.
void metrics_counters() {
  MetricsRegistry reg(1);
  run_threads({[&] { reg.on_send(0, 8); }, [&] { reg.on_send(0, 8); }});
  const RankMetrics final = reg.read_rank(0);
  RACER_CHECK(final.sends == 2 && final.send_bytes == 16,
              "metrics_counters: lost a relaxed increment");
}

/// The job abort protocol, op for op: Job::abort writes the reason once,
/// then flips abort_flag_ with release (job.cpp); every mailbox hot path
/// checks the flag with acquire and only then reads the reason
/// (Mailbox::check_abort_locked).  Observing the flag must imply
/// observing the reason.
void mailbox_abort_flag() {
  mph::atomic<int> abort_reason{0};  // stands in for the write-once string
  mph::atomic<bool> abort_flag{false};
  name_location(&abort_reason, "abort_reason");
  name_location(&abort_flag, "abort_flag");
  run_threads({[&] {
                 abort_reason.store(42, std::memory_order_relaxed);
                 abort_flag.store(true, std::memory_order_release);
               },
               [&] {
                 if (abort_flag.load(std::memory_order_acquire)) {
                   RACER_CHECK(
                       abort_reason.load(std::memory_order_relaxed) == 42,
                       "mailbox_abort_flag: flag observed without reason");
                 }
               }});
}

/// The wildcard-receive counter (Mailbox::wildcard_recvs_): relaxed
/// fetch_adds from racing receivers are never lost, and a concurrent
/// reader sees a monotone value.
void mailbox_wildcard_counter() {
  mph::atomic<std::uint64_t> wildcard_recvs{0};
  name_location(&wildcard_recvs, "wildcard_recvs");
  run_threads({[&] { wildcard_recvs.fetch_add(1, std::memory_order_relaxed); },
               [&] { wildcard_recvs.fetch_add(1, std::memory_order_relaxed); },
               [&] {
                 const std::uint64_t a =
                     wildcard_recvs.load(std::memory_order_relaxed);
                 const std::uint64_t b =
                     wildcard_recvs.load(std::memory_order_relaxed);
                 RACER_CHECK(b >= a && b <= 2,
                             "mailbox_wildcard_counter: non-monotone read");
               }});
  RACER_CHECK(wildcard_recvs.load(std::memory_order_relaxed) == 2,
              "mailbox_wildcard_counter: lost an increment");
}

// ---------------------------------------------------------------------------
// Seeded mutants — bugs the checker MUST find (expect_failure).
// ---------------------------------------------------------------------------

/// Mutant 1: the TraceRing publish protocol with the stamp store demoted
/// to relaxed where release is needed.  An acquire reader can then accept
/// the stamp without the payload store being visible — the exact bug class
/// the shim port guards against.
void mutant_relaxed_publish() {
  mph::atomic<std::uint64_t> payload{0};
  mph::atomic<std::uint64_t> stamp{0};
  name_location(&payload, "payload");
  name_location(&stamp, "stamp");
  run_threads({[&] {
                 payload.store(7, std::memory_order_relaxed);
                 // BUG (seeded): must be memory_order_release.
                 stamp.store(1, std::memory_order_relaxed);
               },
               [&] {
                 if (stamp.load(std::memory_order_acquire) == 1) {
                   RACER_CHECK(
                       payload.load(std::memory_order_relaxed) == 7,
                       "mutant_relaxed_publish: stamp without payload");
                 }
               }});
}

/// Mutant 2: a 64-bit statistic split across two words and updated with
/// two stores (no seqlock, no single 64-bit atomic).  Even at seq_cst a
/// reader interleaving between the stores sees a torn value — the bug is
/// non-atomicity, found by schedule interleaving alone.
void mutant_torn_pair() {
  mph::atomic<std::uint32_t> lo{0xFFFFFFFFU};
  mph::atomic<std::uint32_t> hi{0};
  name_location(&lo, "lo");
  name_location(&hi, "hi");
  run_threads({[&] {
                 // Logically: 64-bit counter 0x00000000FFFFFFFF += 1.
                 // BUG (seeded): the two halves are separate stores.
                 lo.store(0);
                 hi.store(1);
               },
               [&] {
                 const std::uint64_t h = hi.load();
                 const std::uint64_t l = lo.load();
                 const std::uint64_t v = (h << 32U) | l;
                 RACER_CHECK(v == 0xFFFFFFFFULL || v == 0x100000000ULL,
                             "mutant_torn_pair: torn two-word read");
               }});
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

RacerOptions bounds(std::uint64_t max_execs, int preemptions) {
  RacerOptions o;
  o.max_executions = max_execs;
  o.preemption_bound = preemptions;
  return o;
}

const std::vector<LitmusCase>& cases() {
  // Pinned bounds: each case is exhaustive (complete == true) at these
  // settings; tests/racer/test_structures.cpp asserts that, so a change
  // that blows up the state space fails loudly instead of silently
  // truncating coverage.
  static const std::vector<LitmusCase> kCases = {
      {"sb_relaxed", "store buffering, relaxed: full outcome space", false,
       bounds(50000, 2), &sb_relaxed},
      {"sb_seq_cst", "store buffering, seq_cst: (0,0) forbidden", false,
       bounds(50000, 2), &sb_seq_cst},
      {"mp_rel_acq", "message passing, release/acquire: no stale data", false,
       bounds(50000, 2), &mp_rel_acq},
      {"mp_relaxed", "message passing, relaxed flag: stale data found", true,
       bounds(50000, 2), &mp_relaxed},
      {"coherence", "per-location order: re-reads never go backward", false,
       bounds(50000, 2), &coherence},
      {"trace_ring_spsc", "TraceRing: producer vs live snapshot", false,
       bounds(2000000, 2), &trace_ring_spsc},
      {"trace_ring_lap", "TraceRing: capacity-1 lap never tears an event",
       false, bounds(2000000, 2), &trace_ring_lap},
      {"trace_ring_mpsc", "TraceRing: two producers, distinct claims", false,
       bounds(2000000, 2), &trace_ring_mpsc},
      {"trace_ring_mpsc_lap", "KNOWN BUG: two producers lap a live snapshot",
       true, bounds(2000000, 2), &trace_ring_mpsc_lap},
      {"metrics_histogram", "MetricsRegistry: no phantom histogram events",
       false, bounds(2000000, 2), &metrics_histogram},
      {"metrics_counters", "MetricsRegistry: relaxed adds never lost", false,
       bounds(200000, 2), &metrics_counters},
      {"mailbox_abort_flag", "Job/Mailbox abort protocol: flag implies reason",
       false, bounds(50000, 2), &mailbox_abort_flag},
      {"mailbox_wildcard_counter", "Mailbox wildcard counter: monotone, exact",
       false, bounds(200000, 2), &mailbox_wildcard_counter},
      {"mutant_relaxed_publish", "SEEDED BUG: relaxed store needing release",
       true, bounds(50000, 2), &mutant_relaxed_publish},
      {"mutant_torn_pair", "SEEDED BUG: torn two-word statistic read", true,
       bounds(50000, 2), &mutant_torn_pair},
  };
  return kCases;
}

}  // namespace

const std::vector<LitmusCase>& litmus_cases() { return cases(); }

const LitmusCase* find_litmus(std::string_view name) {
  for (const LitmusCase& c : cases()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

RacerReport run_litmus(const LitmusCase& c,
                       const RacerOptions* override_bounds) {
  Engine e;
  return e.explore(c.name, c.body,
                   override_bounds != nullptr ? *override_bounds : c.bounds);
}

RacerReport replay_litmus(const LitmusCase& c,
                          const std::vector<Decision>& schedule,
                          const RacerOptions* override_bounds) {
  Engine e;
  return e.replay(c.name, c.body,
                  override_bounds != nullptr ? *override_bounds : c.bounds,
                  schedule);
}

bool litmus_verdict(const LitmusCase& c, const RacerReport& r) {
  if (!r.divergence.empty()) return false;
  if (c.expect_failure) return r.failed;
  return r.ok();
}

}  // namespace minimpi::racer
