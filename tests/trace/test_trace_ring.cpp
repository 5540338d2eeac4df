// TraceRing / TraceOptions unit tests: recording semantics, drop-oldest
// overflow accounting, option parsing, and multi-producer contention (the
// latter is the mph_trace tsan gate — the ring must stay data-race free
// with writers racing a concurrent snapshot).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/trace.hpp"

using namespace minimpi;

namespace {

TraceEvent make_event(std::uint64_t seq) {
  TraceEvent event;
  event.t_start_ns = seq;
  event.t_end_ns = seq + 1;
  event.op = TraceOp::send;
  event.span = true;
  event.name = "unit";
  event.peer = static_cast<rank_t>(seq % 7);
  event.tag = static_cast<tag_t>(seq % 11);
  event.bytes = seq * 3;
  return event;
}

}  // namespace

TEST(TraceRing, RecordAndSnapshotRoundTrip) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) ring.record(make_event(i));

  const TraceRing::Snapshot snap = ring.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(ring.recorded(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const TraceEvent& e = snap.events[i];
    EXPECT_EQ(e.t_start_ns, i);
    EXPECT_EQ(e.t_end_ns, i + 1);
    EXPECT_EQ(e.op, TraceOp::send);
    EXPECT_TRUE(e.span);
    EXPECT_STREQ(e.name, "unit");
    EXPECT_EQ(e.peer, static_cast<rank_t>(i % 7));
    EXPECT_EQ(e.tag, static_cast<tag_t>(i % 11));
    EXPECT_EQ(e.bytes, i * 3);
  }
}

TEST(TraceRing, OverflowDropsOldestAndCountsThem) {
  constexpr std::size_t kCapacity = 4;
  constexpr std::uint64_t kTotal = 10;
  TraceRing ring(kCapacity);
  for (std::uint64_t i = 0; i < kTotal; ++i) ring.record(make_event(i));

  const TraceRing::Snapshot snap = ring.snapshot();
  EXPECT_EQ(ring.recorded(), kTotal);
  EXPECT_EQ(snap.dropped, kTotal - kCapacity);
  ASSERT_EQ(snap.events.size(), kCapacity);
  // The survivors are exactly the newest kCapacity events, in order.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(snap.events[i].t_start_ns, kTotal - kCapacity + i);
  }
}

TEST(TraceRing, InstantEventsKeepKind) {
  TraceRing ring(4);
  TraceEvent event;
  event.op = TraceOp::fault;
  event.span = false;
  event.name = "drop";
  ring.record(event);
  const TraceRing::Snapshot snap = ring.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].op, TraceOp::fault);
  EXPECT_FALSE(snap.events[0].span);
}

// The tsan contention gate: several producer threads hammer one ring while
// a reader snapshots concurrently.  Correctness claims are deliberately
// loose (drop-oldest means only totals are stable); the point is that
// neither tsan nor the double-stamp torn-read check ever trips.
TEST(TraceRing, ConcurrentProducersAndSnapshots) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  TraceRing ring(64);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_names{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const TraceRing::Snapshot snap = ring.snapshot();
      for (const TraceEvent& e : snap.events) {
        // Every published event must be internally consistent: the name is
        // one of the producers' literals and the kind bit survived.
        if (std::string_view(e.name) != "unit") {
          torn_names.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.record(make_event(static_cast<std::uint64_t>(t) * kPerThread + i));
      }
    });
  }
  for (std::thread& p : producers) p.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn_names.load(), 0u);
  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  const TraceRing::Snapshot final_snap = ring.snapshot();
  // Quiescent ring: every slot is published, so the snapshot is full and
  // the drop count is exact.
  EXPECT_EQ(final_snap.events.size(), ring.capacity());
  EXPECT_EQ(final_snap.dropped, kThreads * kPerThread - ring.capacity());
}

TEST(TraceOptions, ParseTokens) {
  EXPECT_FALSE(TraceOptions::parse("").enabled);
  EXPECT_FALSE(TraceOptions::parse("off").enabled);
  EXPECT_TRUE(TraceOptions::parse("1").enabled);
  EXPECT_TRUE(TraceOptions::parse("on").enabled);
  EXPECT_TRUE(TraceOptions::parse("all").enabled);
  EXPECT_TRUE(TraceOptions::parse("true").enabled);

  const TraceOptions with_capacity = TraceOptions::parse("capacity=512");
  EXPECT_TRUE(with_capacity.enabled);
  EXPECT_EQ(with_capacity.ring_capacity, 512u);

  const TraceOptions combined = TraceOptions::parse("on,capacity=1024");
  EXPECT_TRUE(combined.enabled);
  EXPECT_EQ(combined.ring_capacity, 1024u);

  // Bad capacity values leave the default untouched.
  const TraceOptions bad = TraceOptions::parse("capacity=bogus");
  EXPECT_FALSE(bad.enabled);
  EXPECT_EQ(bad.ring_capacity, TraceOptions{}.ring_capacity);
}

TEST(TraceOptions, CapacityMustParseStrictly) {
  // A numeric prefix is not a number: the default stays.
  const TraceOptions trailing = TraceOptions::parse("capacity=12abc");
  EXPECT_FALSE(trailing.enabled);
  EXPECT_EQ(trailing.ring_capacity, TraceOptions{}.ring_capacity);
  EXPECT_EQ(TraceOptions::parse("capacity=-5").ring_capacity,
            TraceOptions{}.ring_capacity);
  EXPECT_EQ(TraceOptions::parse("capacity=0").ring_capacity,
            TraceOptions{}.ring_capacity);
}

TEST(TraceOptions, EnvironmentTokensApplyOnTopOfTheProgram) {
  TraceOptions programmatic;
  programmatic.ring_capacity = 4096;
  ::setenv("MINIMPI_TRACE", "capacity=100", 1);
  const TraceOptions merged = programmatic.merged_with_env();
  ::unsetenv("MINIMPI_TRACE");
  // The exported capacity wins even when it lowers the program's value.
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.ring_capacity, 100u);
}

TEST(TraceOptions, MergedWithEnvIsUnion) {
  // No env var set in the test harness: merge is the identity.
  TraceOptions programmatic;
  programmatic.enabled = true;
  programmatic.ring_capacity = 4096;
  const TraceOptions merged = programmatic.merged_with_env();
  EXPECT_TRUE(merged.enabled);
  EXPECT_GE(merged.ring_capacity, 4096u);
}
