// MetricsRegistry units: histogram bucket edges, option parsing, counter
// and gauge aggregation, probes, and — the reason the hot path is all
// relaxed atomics — writer/writer and writer/reader contention that tsan
// must pass cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/minimpi/metrics.hpp"

using minimpi::kMetricsHistogramBuckets;
using minimpi::MetricsRegistry;
using minimpi::metrics_histogram_bucket;
using minimpi::metrics_histogram_upper;
using minimpi::MonitorOptions;
using minimpi::RankMetrics;

// --- histogram bucket edges -------------------------------------------------

TEST(MetricsHistogram, BucketIsBitWidth) {
  EXPECT_EQ(metrics_histogram_bucket(0), 0u);
  EXPECT_EQ(metrics_histogram_bucket(1), 1u);
  EXPECT_EQ(metrics_histogram_bucket(2), 2u);
  EXPECT_EQ(metrics_histogram_bucket(3), 2u);
  EXPECT_EQ(metrics_histogram_bucket(4), 3u);
  EXPECT_EQ(metrics_histogram_bucket(7), 3u);
  EXPECT_EQ(metrics_histogram_bucket(8), 4u);
  EXPECT_EQ(metrics_histogram_bucket(1023), 10u);
  EXPECT_EQ(metrics_histogram_bucket(1024), 11u);
}

TEST(MetricsHistogram, LastBucketAbsorbsEverythingLarger) {
  const std::uint64_t huge = std::uint64_t{1} << 50;
  EXPECT_EQ(metrics_histogram_bucket(huge), kMetricsHistogramBuckets - 1);
  EXPECT_EQ(metrics_histogram_bucket(~std::uint64_t{0}),
            kMetricsHistogramBuckets - 1);
}

TEST(MetricsHistogram, UpperBoundsMatchBucketEdges) {
  EXPECT_EQ(metrics_histogram_upper(0), 0u);
  EXPECT_EQ(metrics_histogram_upper(1), 1u);
  EXPECT_EQ(metrics_histogram_upper(2), 3u);
  EXPECT_EQ(metrics_histogram_upper(3), 7u);
  // Every value sits at or below its own bucket's bound and above the
  // previous bucket's — the invariant the exact edges encode.
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{4}, std::uint64_t{100},
                                std::uint64_t{65536}, std::uint64_t{1} << 38}) {
    const std::size_t b = metrics_histogram_bucket(v);
    EXPECT_LE(v, metrics_histogram_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, metrics_histogram_upper(b - 1)) << v;
    }
  }
}

// --- MonitorOptions parsing -------------------------------------------------

TEST(MonitorOptions, ParseEnables) {
  EXPECT_FALSE(MonitorOptions{}.enabled);
  EXPECT_TRUE(MonitorOptions::parse("1").enabled);
  EXPECT_TRUE(MonitorOptions::parse("on").enabled);
  EXPECT_TRUE(MonitorOptions::parse("true").enabled);
  EXPECT_FALSE(MonitorOptions::parse("0").enabled);
  EXPECT_FALSE(MonitorOptions::parse("").enabled);
}

TEST(MonitorOptions, ParseTokens) {
  const MonitorOptions opts =
      MonitorOptions::parse("interval=250,dir=/tmp/monx,nosocket");
  EXPECT_TRUE(opts.enabled);  // any configuring token implies enable
  EXPECT_EQ(opts.interval.count(), 250);
  EXPECT_EQ(opts.dir, "/tmp/monx");
  EXPECT_FALSE(opts.socket);
  EXPECT_EQ(opts.jsonl_path(), "/tmp/monx/mph_metrics.jsonl");
  EXPECT_EQ(opts.exposition_path(), "/tmp/monx/mph_metrics.prom");
  EXPECT_EQ(opts.socket_path(), "/tmp/monx/mph_monitor.sock");
}

TEST(MonitorOptions, UnknownTokensIgnored) {
  const MonitorOptions opts = MonitorOptions::parse("on,bogus=7,whatever");
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.interval.count(), MonitorOptions{}.interval.count());
}

TEST(MonitorOptions, IntervalMustParseStrictly) {
  // "abc" is not zero: a non-numeric interval must not switch publishing
  // off.
  const MonitorOptions opts = MonitorOptions::parse("interval=abc");
  EXPECT_EQ(opts.interval.count(), MonitorOptions{}.interval.count());
  EXPECT_FALSE(opts.enabled);
  EXPECT_EQ(MonitorOptions::parse("interval=-1").interval.count(),
            MonitorOptions{}.interval.count());
}

TEST(MonitorOptions, EnvironmentTokensApplyOnTopOfTheProgram) {
  MonitorOptions programmatic;
  programmatic.interval = std::chrono::milliseconds(250);
  programmatic.dir = "/tmp/program_dir";
  ::setenv("MINIMPI_MONITOR", "interval=100", 1);
  const MonitorOptions merged = programmatic.merged_with_env();
  ::unsetenv("MINIMPI_MONITOR");
  // The exported interval wins even though it equals the default; the
  // program's dir, which the environment does not name, stays.
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.interval.count(), 100);
  EXPECT_EQ(merged.dir, "/tmp/program_dir");
}

// --- registry aggregation ---------------------------------------------------

TEST(MetricsRegistry, CountersAndGaugesAggregate) {
  MetricsRegistry reg(2);
  reg.on_send(0, 100);
  reg.on_send(0, 50);
  reg.on_delivered(1, 150);
  reg.on_match(1, 5);
  reg.on_collective(0);
  reg.on_fault(1);
  reg.add_blocked_ns(1, 1000);
  reg.set_queue_depth(1, 3);
  reg.set_queue_depth(1, 1);
  reg.set_handshake_ns(0, 42);

  const RankMetrics r0 = reg.read_rank(0);
  EXPECT_EQ(r0.world_rank, 0);
  EXPECT_EQ(r0.sends, 2u);
  EXPECT_EQ(r0.send_bytes, 150u);
  EXPECT_EQ(r0.collectives, 1u);
  EXPECT_EQ(r0.handshake_ns, 42u);
  EXPECT_EQ(r0.delivered, 0u);

  const RankMetrics r1 = reg.read_rank(1);
  EXPECT_EQ(r1.delivered, 1u);
  EXPECT_EQ(r1.delivered_bytes, 150u);
  EXPECT_EQ(r1.matches, 1u);
  EXPECT_EQ(r1.faults, 1u);
  EXPECT_EQ(r1.blocked_ns, 1000u);
  EXPECT_EQ(r1.queue_depth, 1u);         // gauge: last value
  EXPECT_EQ(r1.queue_high_water, 3u);    // high water: max ever
  EXPECT_EQ(r1.match_latency.count, 1u);
  EXPECT_EQ(r1.match_latency.sum, 5u);
  EXPECT_EQ(r1.match_latency.buckets[metrics_histogram_bucket(5)], 1u);
}

TEST(MetricsRegistry, OutOfRangeRanksAreIgnored) {
  MetricsRegistry reg(1);
  reg.on_send(-1, 10);
  reg.on_send(7, 10);
  reg.set_component(9, "ghost");
  EXPECT_EQ(reg.read_rank(0).sends, 0u);
}

TEST(MetricsRegistry, ComponentNamesAndProbes) {
  MetricsRegistry reg(2);
  reg.set_component(1, "ocean");
  EXPECT_EQ(reg.component(1), "ocean");
  EXPECT_EQ(reg.component(0), "");

  auto counter = std::make_shared<std::atomic<std::uint64_t>>(7);
  reg.add_probe(1, "output_lines(logs/ocean.log)",
                [counter] { return counter->load(); });
  RankMetrics r1 = reg.read_rank(1);
  ASSERT_EQ(r1.values.size(), 1u);
  EXPECT_EQ(r1.values[0].first, "output_lines(logs/ocean.log)");
  EXPECT_EQ(r1.values[0].second, 7u);

  counter->store(9);  // probes sample live state at every read
  r1 = reg.read_rank(1);
  EXPECT_EQ(r1.values[0].second, 9u);
}

// --- contention (the tsan test) ---------------------------------------------

TEST(MetricsRegistry, ConcurrentWritersAndReaderAreRaceFree) {
  constexpr int kWriters = 4;
  constexpr int kOps = 20000;
  MetricsRegistry reg(kWriters);
  std::atomic<bool> stop{false};

  // A reader thread aggregating while writers hammer — the monitor thread's
  // exact access pattern.  tsan validates there is no data race; the final
  // post-join read validates no update was lost.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int r = 0; r < kWriters; ++r) (void)reg.read_rank(r);
    }
  });
  std::vector<std::thread> writers;
  for (int r = 0; r < kWriters; ++r) {
    writers.emplace_back([&reg, r] {
      for (int i = 0; i < kOps; ++i) {
        reg.on_send(r, 8);
        reg.on_delivered(r, 8);
        reg.on_match(r, static_cast<std::uint64_t>(i));
        reg.add_blocked_ns(r, 2);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  for (int r = 0; r < kWriters; ++r) {
    const RankMetrics m = reg.read_rank(r);
    EXPECT_EQ(m.sends, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(m.delivered, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(m.match_latency.count, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(m.blocked_ns, static_cast<std::uint64_t>(2 * kOps));
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : m.match_latency.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, m.match_latency.count);
  }
}
