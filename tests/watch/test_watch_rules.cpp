// test_watch_rules.cpp — mph_watch rule engine on synthetic snapshots:
// every rule's fire/clear edge, the hysteresis (no flapping on a noisy
// boundary), the steering handshake, and option parsing.  No job is
// launched; the Watcher is fed MetricsSnapshots directly, which is the
// same call path the monitor thread and the steering loop use.
#include "src/minimpi/watch/watch.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/minimpi/metrics.hpp"

namespace watch = minimpi::watch;

namespace {

constexpr std::uint64_t kSecond = 1'000'000'000;

struct Row {
  minimpi::rank_t rank = 0;
  std::string component;
  bool alive = true;
  std::uint64_t delivered = 0;
  std::uint64_t blocked_ns = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t faults = 0;
  minimpi::HistogramData latency{};
};

minimpi::MetricsSnapshot make_snap(std::uint64_t seq,
                                   const std::vector<Row>& rows) {
  minimpi::MetricsSnapshot snap;
  snap.seq = seq;
  snap.t_ns = seq * kSecond;  // one-second publish cadence
  snap.wall_ms = 1'700'000'000'000ULL + seq * 1000;
  for (const Row& row : rows) {
    minimpi::RankMetrics r;
    r.world_rank = row.rank;
    r.component = row.component;
    r.alive = row.alive;
    r.delivered = row.delivered;
    r.blocked_ns = row.blocked_ns;
    r.queue_depth = row.queue_depth;
    r.faults = row.faults;
    r.match_latency = row.latency;
    snap.ranks.push_back(std::move(r));
  }
  return snap;
}

watch::WatchOptions test_options(const std::string& name) {
  watch::WatchOptions opts;
  opts.enabled = true;
  opts.fire_after = 2;
  opts.clear_after = 2;
  opts.flight_record = false;  // no tracer in these tests
  opts.dir = ::testing::TempDir() + "mph_watch_rules_" + name;
  return opts;
}

}  // namespace

TEST(WatchRules, StallFiresAfterConsecutiveBreachesAndClears) {
  watch::Watcher w(test_options("stall"));

  // Baseline frame: primes the ring, judges nothing.
  EXPECT_TRUE(w.observe(make_snap(1, {{0, "ocean", true, 10, 0}})).empty());

  // Breach #1: blocked 95% of the interval with zero deliveries.  With
  // fire_after=2 the first breach only counts.
  EXPECT_TRUE(
      w.observe(make_snap(2, {{0, "ocean", true, 10, 950'000'000}})).empty());
  EXPECT_EQ(w.active_alerts(), 0U);

  // Breach #2 fires: critical, subject is the component.
  std::vector<watch::HealthEvent> fired =
      w.observe(make_snap(3, {{0, "ocean", true, 10, 1'900'000'000}}));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "stall");
  EXPECT_EQ(fired[0].subject, "ocean");
  EXPECT_EQ(fired[0].severity, watch::Severity::critical);
  EXPECT_FALSE(fired[0].cleared);
  EXPECT_GE(fired[0].value, 80.0);
  EXPECT_EQ(w.active_alerts(), 1U);

  // The Prometheus gauge follows the alert state.
  const std::string gauges = w.alert_gauges();
  EXPECT_NE(gauges.find("mph_watch_alert{rule=\"stall\",subject=\"ocean\"} 1"),
            std::string::npos);
  EXPECT_NE(gauges.find("mph_watch_events_total 1"), std::string::npos);

  // Recovery: deliveries resume, no further blocking.  clear_after=2, so
  // the first clean frame holds the alert and the second clears it.
  EXPECT_TRUE(
      w.observe(make_snap(4, {{0, "ocean", true, 20, 1'900'000'000}})).empty());
  std::vector<watch::HealthEvent> cleared =
      w.observe(make_snap(5, {{0, "ocean", true, 30, 1'900'000'000}}));
  ASSERT_EQ(cleared.size(), 1U);
  EXPECT_EQ(cleared[0].rule, "stall");
  EXPECT_TRUE(cleared[0].cleared);
  EXPECT_EQ(cleared[0].severity, watch::Severity::info);
  EXPECT_EQ(w.active_alerts(), 0U);
  EXPECT_NE(w.alert_gauges().find(
                "mph_watch_alert{rule=\"stall\",subject=\"ocean\"} 0"),
            std::string::npos);
}

TEST(WatchRules, HysteresisNeverFlapsOnAlternatingFrames) {
  // A boundary-riding signal: breach, clean, breach, clean...  With
  // fire_after=2 the breach streak never reaches two, so the watcher must
  // stay silent for the whole run.
  watch::Watcher w(test_options("flap"));
  std::uint64_t blocked = 0;
  std::uint64_t delivered = 0;
  w.observe(make_snap(1, {{0, "ocean", true, delivered, blocked}}));
  for (std::uint64_t seq = 2; seq <= 12; ++seq) {
    const bool breach = (seq % 2) == 0;
    if (breach) {
      blocked += 950'000'000;  // 95% of the interval, nothing delivered
    } else {
      delivered += 5;  // clean frame: traffic flows, no blocking
    }
    EXPECT_TRUE(
        w.observe(make_snap(seq, {{0, "ocean", true, delivered, blocked}}))
            .empty())
        << "flapped at seq " << seq;
  }
  EXPECT_EQ(w.active_alerts(), 0U);
  EXPECT_TRUE(w.events().empty());
}

TEST(WatchRules, QueueGrowthFiresAtHighWater) {
  watch::WatchOptions opts = test_options("queue");
  opts.queue_high = 64;
  watch::Watcher w(opts);
  // Deliveries keep flowing so stall stays quiet; the backlog is the story.
  w.observe(make_snap(1, {{0, "land", true, 10, 0, 8}}));
  EXPECT_TRUE(w.observe(make_snap(2, {{0, "land", true, 20, 0, 80}})).empty());
  std::vector<watch::HealthEvent> fired =
      w.observe(make_snap(3, {{0, "land", true, 30, 0, 90}}));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "queue");
  EXPECT_EQ(fired[0].severity, watch::Severity::warning);
  EXPECT_EQ(fired[0].subject, "land");
  EXPECT_DOUBLE_EQ(fired[0].value, 90.0);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 64.0);
}

TEST(WatchRules, LatencyP99JudgesTheWindowedHistogram) {
  watch::WatchOptions opts = test_options("latency");
  opts.latency_p99_ns = 100'000'000;  // 100 ms
  opts.latency_min_count = 16;
  watch::Watcher w(opts);

  // All matches land in the ~268 ms bucket (log2 bucket 28) — p99 over the
  // window is that bucket's upper bound, well past the threshold.  The
  // histogram is cumulative per rank, so counts must grow between frames.
  const auto hist_at = [](std::uint64_t count) {
    minimpi::HistogramData h;
    h.count = count;
    h.sum = count * 200'000'000;
    h.buckets[28] = count;
    return h;
  };
  w.observe(make_snap(1, {{0, "atm", true, 10, 0, 0, 0, hist_at(0)}}));
  EXPECT_TRUE(
      w.observe(make_snap(2, {{0, "atm", true, 20, 0, 0, 0, hist_at(32)}}))
          .empty());
  std::vector<watch::HealthEvent> fired =
      w.observe(make_snap(3, {{0, "atm", true, 30, 0, 0, 0, hist_at(64)}}));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "latency_p99");
  EXPECT_EQ(fired[0].severity, watch::Severity::warning);
  EXPECT_GE(fired[0].value, 1e8);

  // Below latency_min_count the percentile is not trusted: a fresh watcher
  // seeing only 8 matches in the window never judges the rule.
  watch::Watcher quiet(opts);
  quiet.observe(make_snap(1, {{0, "atm", true, 10, 0, 0, 0, hist_at(0)}}));
  quiet.observe(make_snap(2, {{0, "atm", true, 20, 0, 0, 0, hist_at(4)}}));
  EXPECT_TRUE(
      quiet.observe(make_snap(3, {{0, "atm", true, 30, 0, 0, 0, hist_at(8)}}))
          .empty());
  EXPECT_EQ(quiet.active_alerts(), 0U);
}

TEST(WatchRules, FaultBurnFiresOnceAndStaysActive) {
  watch::WatchOptions opts = test_options("faults");
  opts.fault_budget = 4;
  watch::Watcher w(opts);
  w.observe(make_snap(1, {{0, "ice", true, 10, 0, 0, 0}}));
  EXPECT_TRUE(w.observe(make_snap(2, {{0, "ice", true, 20, 0, 0, 4}})).empty());
  std::vector<watch::HealthEvent> fired =
      w.observe(make_snap(3, {{0, "ice", true, 30, 0, 0, 5}}));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "fault_burn");
  EXPECT_EQ(fired[0].severity, watch::Severity::warning);

  // The counter is monotone: the alert stays active without re-firing.
  EXPECT_TRUE(w.observe(make_snap(4, {{0, "ice", true, 40, 0, 0, 6}})).empty());
  EXPECT_TRUE(w.observe(make_snap(5, {{0, "ice", true, 50, 0, 0, 6}})).empty());
  EXPECT_EQ(w.active_alerts(), 1U);
  std::size_t burns = 0;
  for (const watch::HealthEvent& ev : w.events()) {
    if (ev.rule == "fault_burn") ++burns;
  }
  EXPECT_EQ(burns, 1U);
}

TEST(WatchRules, MemberDownIsImmediateAndHealsOnReturn) {
  // Death is not noise: fire_after=2 must NOT delay a member_down event.
  watch::Watcher w(test_options("down"));
  w.observe(make_snap(
      1, {{0, "ocean", true, 10, 0}, {1, "ocean", true, 10, 0}}));
  std::vector<watch::HealthEvent> fired = w.observe(make_snap(
      2, {{0, "ocean", true, 20, 0}, {1, "ocean", false, 10, 0}}));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "member_down");
  EXPECT_EQ(fired[0].severity, watch::Severity::critical);
  EXPECT_EQ(fired[0].subject, "ocean");
  EXPECT_NE(fired[0].message.find("rank 1"), std::string::npos);

  // A respawned member produces the recovery edge, also immediately.
  std::vector<watch::HealthEvent> healed = w.observe(make_snap(
      3, {{0, "ocean", true, 30, 0}, {1, "ocean", true, 12, 0}}));
  ASSERT_EQ(healed.size(), 1U);
  EXPECT_EQ(healed[0].rule, "member_down");
  EXPECT_TRUE(healed[0].cleared);
  EXPECT_EQ(w.active_alerts(), 0U);
}

TEST(WatchRules, ImbalanceFiresAndSteeringConsumesTheAlert) {
  watch::WatchOptions opts = test_options("imbalance");
  opts.imbalance_ratio = 1.8;
  watch::Watcher w(opts);

  // "ocean" is busy the whole interval (no blocking); "atm" sleeps in the
  // mailbox the whole interval but keeps receiving, so only the imbalance
  // rule speaks.  Busy shares 1.0 vs 0.0 -> ratio 2.0 over the mean.
  std::uint64_t atm_blocked = 0;
  const auto frame = [&](std::uint64_t seq) {
    atm_blocked += kSecond;
    return make_snap(seq, {{0, "ocean", true, seq * 10, 0},
                           {1, "atm", true, seq * 10, atm_blocked}});
  };
  w.observe(frame(1));
  EXPECT_FALSE(w.consume_imbalance_alert());
  EXPECT_TRUE(w.observe(frame(2)).empty());
  std::vector<watch::HealthEvent> fired = w.observe(frame(3));
  ASSERT_EQ(fired.size(), 1U);
  EXPECT_EQ(fired[0].rule, "imbalance");
  EXPECT_EQ(fired[0].subject, "ocean");
  EXPECT_NEAR(fired[0].value, 2.0, 1e-9);

  // The steering handshake: pending exactly once per firing.
  EXPECT_TRUE(w.consume_imbalance_alert());
  EXPECT_FALSE(w.consume_imbalance_alert());
}

TEST(WatchRules, StaleAndDuplicateFramesAreIgnored) {
  watch::Watcher w(test_options("stale"));
  w.observe(make_snap(5, {{0, "ocean", true, 10, 0}}));
  // A re-served or out-of-order frame must not disturb the ring.
  EXPECT_TRUE(w.observe(make_snap(5, {{0, "ocean", true, 10, 0}})).empty());
  EXPECT_TRUE(w.observe(make_snap(3, {{0, "ocean", true, 0, 0}})).empty());
  // The stream resumes where it left off: 95%-blocked frames 6 and 7 are
  // the two consecutive breaches that fire stall.
  EXPECT_TRUE(
      w.observe(make_snap(6, {{0, "ocean", true, 10, 950'000'000}})).empty());
  EXPECT_EQ(
      w.observe(make_snap(7, {{0, "ocean", true, 10, 1'900'000'000}})).size(),
      1U);
}

TEST(WatchRules, HealthEventsAppendAsJsonl) {
  watch::WatchOptions opts = test_options("jsonl");
  watch::Watcher w(opts);
  w.observe(make_snap(1, {{0, "ocean", true, 10, 0}}));
  w.observe(make_snap(2, {{0, "ocean", true, 10, 950'000'000}}));
  w.observe(make_snap(3, {{0, "ocean", true, 10, 1'900'000'000}}));

  std::ifstream in(opts.health_path());
  ASSERT_TRUE(in.is_open()) << opts.health_path();
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"kind\": \"mph_health\""), std::string::npos);
  EXPECT_NE(line.find("\"rule\": \"stall\""), std::string::npos);
  EXPECT_NE(line.find("\"subject\": \"ocean\""), std::string::npos);
  std::filesystem::remove_all(opts.dir);
}

TEST(WatchOptionsTest, ParseReadsTheMonitorStyleTokenList) {
  EXPECT_FALSE(watch::WatchOptions::parse("").enabled);
  EXPECT_FALSE(watch::WatchOptions::parse("bogus").enabled);
  EXPECT_TRUE(watch::WatchOptions::parse("1").enabled);
  EXPECT_TRUE(watch::WatchOptions::parse("on").enabled);

  const watch::WatchOptions opts = watch::WatchOptions::parse(
      "stall=90 queue=8,p99ms=250 imbalance=1.5 faults=2 fire=3 clear=4 "
      "window=6 dir=/tmp/watchdir noflight");
  EXPECT_TRUE(opts.enabled);
  EXPECT_DOUBLE_EQ(opts.stall_blocked_pct, 90.0);
  EXPECT_EQ(opts.queue_high, 8U);
  EXPECT_EQ(opts.latency_p99_ns, 250'000'000U);
  EXPECT_DOUBLE_EQ(opts.imbalance_ratio, 1.5);
  EXPECT_EQ(opts.fault_budget, 2U);
  EXPECT_EQ(opts.fire_after, 3);
  EXPECT_EQ(opts.clear_after, 4);
  EXPECT_EQ(opts.window, 6U);
  EXPECT_EQ(opts.dir, "/tmp/watchdir");
  EXPECT_FALSE(opts.flight_record);

  // Degenerate values are clamped to something the engine can run with.
  EXPECT_EQ(watch::WatchOptions::parse("fire=0").fire_after, 1);
  EXPECT_EQ(watch::WatchOptions::parse("window=1").window, 2U);
}

TEST(WatchOptionsTest, NonNumericThresholdIsIgnored) {
  // "abc" is not zero: a queue threshold of 0 would fire the queue rule
  // for every component on every frame.
  const watch::WatchOptions opts = watch::WatchOptions::parse("queue=abc");
  EXPECT_EQ(opts.queue_high, 64U);
  EXPECT_FALSE(opts.enabled);
  EXPECT_DOUBLE_EQ(watch::WatchOptions::parse("stall=9x").stall_blocked_pct,
                   watch::WatchOptions{}.stall_blocked_pct);
}

TEST(WatchOptionsTest, EnvironmentTokensApplyOnTopOfTheProgram) {
  watch::WatchOptions base;
  base.queue_high = 8;
  base.fire_after = 5;
  ::setenv("MINIMPI_WATCH", "queue=64", 1);
  const watch::WatchOptions merged = base.merged_with_env();
  ::unsetenv("MINIMPI_WATCH");
  // The exported threshold wins even though it equals the default.
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.queue_high, 64U);
  EXPECT_EQ(merged.fire_after, 5);
}

TEST(WatchOptionsTest, EnvironmentUnionsAndOverrides) {
  ::setenv("MINIMPI_WATCH", "stall=70,faults=3", 1);
  watch::WatchOptions base;  // disabled in code
  const watch::WatchOptions merged = base.merged_with_env();
  EXPECT_TRUE(merged.enabled);
  EXPECT_DOUBLE_EQ(merged.stall_blocked_pct, 70.0);
  EXPECT_EQ(merged.fault_budget, 3U);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(merged.queue_high, watch::WatchOptions{}.queue_high);
  ::unsetenv("MINIMPI_WATCH");

  // No environment: the options pass through unchanged.
  const watch::WatchOptions same = base.merged_with_env();
  EXPECT_FALSE(same.enabled);
}
