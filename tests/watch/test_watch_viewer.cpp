// test_watch_viewer.cpp — the consumer half of mph_watch: health-event
// JSONL round trips, the rotation/truncation tolerance contract of the
// file readers, alert replay, and the merged `mph watch` view.
// Everything here runs without launching a job or spawning the CLI.
#include "src/mph/monitor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/minimpi/metrics.hpp"
#include "src/minimpi/watch/watch.hpp"

namespace mon = mph::mon;
namespace watch = minimpi::watch;

namespace {

minimpi::MetricsSnapshot make_snap(std::uint64_t seq) {
  minimpi::MetricsSnapshot snap;
  snap.seq = seq;
  snap.t_ns = seq * 1'000'000'000ULL;
  snap.wall_ms = 1'700'000'000'000ULL + seq * 1000;
  minimpi::RankMetrics r;
  r.world_rank = 0;
  r.component = "ocean";
  r.delivered = seq * 100;
  r.delivered_bytes = seq * 4096;
  snap.ranks.push_back(std::move(r));
  return snap;
}

watch::HealthEvent make_event(std::uint64_t seq, const std::string& rule,
                              const std::string& subject, bool cleared,
                              watch::Severity severity) {
  watch::HealthEvent ev;
  ev.seq = seq;
  ev.t_ns = seq * 1'000'000'000ULL;
  ev.wall_ms = 1'700'000'000'000ULL + seq * 1000;
  ev.rule = rule;
  ev.subject = subject;
  ev.cleared = cleared;
  ev.severity = severity;
  ev.value = 95.5;
  ev.threshold = 80.0;
  ev.message = rule + " event on " + subject;
  return ev;
}

std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + "mph_watch_viewer_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

}  // namespace

TEST(WatchViewer, HealthEventRoundTripsThroughJsonl) {
  watch::HealthEvent ev =
      make_event(7, "stall", "ocean", false, watch::Severity::critical);
  ev.blame = "ocean (62% of critical path)";
  ev.flight_file = "logs/mph_flight_7.json";

  const watch::HealthEvent back = mon::parse_health_event(ev.to_jsonl());
  EXPECT_EQ(back.seq, 7U);
  EXPECT_EQ(back.t_ns, ev.t_ns);
  EXPECT_EQ(back.wall_ms, ev.wall_ms);
  EXPECT_EQ(back.rule, "stall");
  EXPECT_EQ(back.subject, "ocean");
  EXPECT_EQ(back.severity, watch::Severity::critical);
  EXPECT_FALSE(back.cleared);
  EXPECT_DOUBLE_EQ(back.value, 95.5);
  EXPECT_DOUBLE_EQ(back.threshold, 80.0);
  EXPECT_EQ(back.message, ev.message);
  EXPECT_EQ(back.blame, ev.blame);
  EXPECT_EQ(back.flight_file, ev.flight_file);

  // The cleared/info edge survives too.
  const watch::HealthEvent healed = mon::parse_health_event(
      make_event(9, "stall", "ocean", true, watch::Severity::info).to_jsonl());
  EXPECT_TRUE(healed.cleared);
  EXPECT_EQ(healed.severity, watch::Severity::info);

  EXPECT_THROW(mon::parse_health_event("{\"half\": "), std::runtime_error);
  // Well-formed JSON of the wrong kind is a contract error, not a skip.
  EXPECT_THROW(mon::parse_health_event(make_snap(1).to_jsonl()),
               std::runtime_error);
}

TEST(WatchViewer, LooksLikeTellsHealthFromMetrics) {
  const std::string health =
      make_event(1, "queue", "land", false, watch::Severity::warning)
          .to_jsonl();
  const std::string metrics = make_snap(1).to_jsonl();
  EXPECT_TRUE(mon::looks_like_health(health + "\n" + health));
  EXPECT_FALSE(mon::looks_like_health(metrics));
  EXPECT_FALSE(mon::looks_like_health("not json at all"));
  EXPECT_TRUE(mon::looks_like_metrics(metrics));
  EXPECT_FALSE(mon::looks_like_metrics(health));
}

TEST(WatchViewer, LastValidSnapshotResyncsAcrossRotationAndTruncation) {
  const std::string path = temp_file("rotated.jsonl");
  // A reattached viewer sees: the torn tail of a rotated-away line, a good
  // frame, producer garbage, a newer good frame, and a half-written tail
  // (the race with the producer's append).  The contract: skip, don't
  // error, and return the newest frame that parses.
  write_file(path, "ks\": 12, \"tNs\": 99}\n" +            // torn rotation
                       make_snap(3).to_jsonl() + "\n" +
                       "!!corrupt line!!\n" +
                       make_snap(7).to_jsonl() + "\n" +
                       make_snap(9).to_jsonl().substr(0, 40));  // torn tail
  const std::optional<minimpi::MetricsSnapshot> snap =
      mon::last_valid_snapshot(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->seq, 7U);
  EXPECT_EQ(snap->wall_ms, make_snap(7).wall_ms);

  // Nothing parseable (or no file at all) is nullopt, not a throw.
  write_file(path, "garbage\nmore garbage\n");
  EXPECT_FALSE(mon::last_valid_snapshot(path).has_value());
  std::filesystem::remove(path);
  EXPECT_FALSE(mon::last_valid_snapshot(path).has_value());
}

TEST(WatchViewer, ReadHealthTailSkipsTornLinesAndCaps) {
  const std::string path = temp_file("health.jsonl");
  std::string content;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    content += make_event(seq, "queue", "land", false,
                          watch::Severity::warning)
                   .to_jsonl() +
               "\n";
    if (seq == 2) content += "{\"torn\": \n";  // producer race artifact
  }
  write_file(path, content);

  const std::vector<watch::HealthEvent> tail =
      mon::read_health_tail(path, 3);
  ASSERT_EQ(tail.size(), 3U);
  // Oldest first, and the torn line cost us nothing.
  EXPECT_EQ(tail[0].seq, 3U);
  EXPECT_EQ(tail[2].seq, 5U);

  EXPECT_TRUE(mon::read_health_tail(path + ".missing").empty());
  std::filesystem::remove(path);
}

TEST(WatchViewer, ActiveAlertsReplayKeepsNewestEdgePerRuleSubject) {
  std::vector<watch::HealthEvent> events;
  events.push_back(
      make_event(1, "stall", "ocean", false, watch::Severity::critical));
  events.push_back(
      make_event(2, "queue", "land", false, watch::Severity::warning));
  events.push_back(
      make_event(3, "stall", "ocean", true, watch::Severity::info));
  events.push_back(
      make_event(4, "stall", "ocean", false, watch::Severity::critical));

  const std::vector<watch::HealthEvent> active = mon::active_alerts(events);
  ASSERT_EQ(active.size(), 2U);
  EXPECT_EQ(active[0].rule, "queue");
  EXPECT_EQ(active[1].rule, "stall");
  EXPECT_EQ(active[1].seq, 4U);  // the re-fire, not the original

  // A fully cleared stream has no active alerts.
  events.push_back(
      make_event(5, "stall", "ocean", true, watch::Severity::info));
  events.push_back(
      make_event(6, "queue", "land", true, watch::Severity::info));
  EXPECT_TRUE(mon::active_alerts(events).empty());
}

TEST(WatchViewer, TopViewCarriesSeqAndWallStamps) {
  const minimpi::MetricsSnapshot prev = make_snap(4);
  const minimpi::MetricsSnapshot cur = make_snap(5);
  const mon::TopView view = mon::build_top_view(&prev, cur);
  EXPECT_EQ(view.seq, 5U);
  EXPECT_EQ(view.wall_ms, cur.wall_ms);
  ASSERT_EQ(view.rows.size(), 1U);
  // Rates come from the line stamps: 100 deliveries over the 1 s between
  // the two frames' tNs.
  EXPECT_NEAR(view.rows[0].msgs_per_s, 100.0, 1e-6);

  // First frame of a session: stamps present, rates zero.
  const mon::TopView first = mon::build_top_view(nullptr, cur);
  EXPECT_EQ(first.seq, 5U);
  EXPECT_DOUBLE_EQ(first.rows[0].msgs_per_s, 0.0);
}

TEST(WatchViewer, BuildWatchViewMergesJobsIntoOneTimeline) {
  mon::WatchJob a;
  a.source = "jobA/mph_metrics.jsonl";
  a.online = true;
  a.snapshot = make_snap(10);
  a.events.push_back(
      make_event(2, "stall", "ocean", false, watch::Severity::critical));
  a.events.push_back(
      make_event(6, "queue", "land", false, watch::Severity::warning));

  mon::WatchJob b;
  b.source = "jobB/mph_health.jsonl";
  b.online = false;
  b.events.push_back(
      make_event(4, "fault_burn", "ice", false, watch::Severity::warning));

  const mon::WatchView view =
      mon::build_watch_view({a, b}, /*max_recent=*/2);
  EXPECT_EQ(view.jobs.size(), 2U);
  EXPECT_EQ(view.active, 3U);
  // The ribbon is the *newest* two events across both jobs, merged on the
  // wall-clock stamp: jobB's seq-4 event lands between jobA's 2 and 6.
  ASSERT_EQ(view.recent.size(), 2U);
  EXPECT_EQ(view.recent[0].first, 1U);
  EXPECT_EQ(view.recent[0].second.rule, "fault_burn");
  EXPECT_EQ(view.recent[1].first, 0U);
  EXPECT_EQ(view.recent[1].second.rule, "queue");
}

TEST(WatchViewer, RenderWatchShowsAlertsOfflineAndMissingSnapshots) {
  mon::WatchJob a;
  a.source = "jobA.sock";
  a.online = true;
  a.snapshot = make_snap(10);
  watch::HealthEvent alert =
      make_event(2, "stall", "ocean", false, watch::Severity::critical);
  alert.blame = "ocean (62% of critical path)";
  a.events.push_back(alert);

  mon::WatchJob gone;
  gone.source = "jobB/mph_metrics.jsonl";
  gone.online = false;
  gone.snapshot = make_snap(3);

  mon::WatchJob empty;
  empty.source = "jobC/mph_health.jsonl";

  const std::string out =
      mon::render_watch(mon::build_watch_view({a, gone, empty}));
  EXPECT_NE(out.find("3 job(s), 1 active alert(s)"), std::string::npos);
  EXPECT_NE(out.find("ALERT critical stall/ocean"), std::string::npos);
  EXPECT_NE(out.find("[blame: ocean (62% of critical path)]"),
            std::string::npos);
  EXPECT_NE(out.find("(offline)"), std::string::npos);
  EXPECT_NE(out.find("(no snapshot)"), std::string::npos);
  EXPECT_NE(out.find("recent events:"), std::string::npos);
}
