// The publish pipeline: JSONL and Prometheus exposition round-trip through
// src/util/json and the mph::mon parser, the monitor thread writes both
// files at its interval, a live client reads the AF_UNIX socket while the
// job runs, and the top view renders sensible rates from snapshot pairs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/metrics.hpp"
#include "src/mph/monitor.hpp"
#include "src/util/strings.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;
using minimpi::MetricsSnapshot;
using minimpi::RankMetrics;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mph_mon_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

minimpi::JobOptions publishing_options(const std::string& dir,
                                       int interval_ms = 5) {
  minimpi::JobOptions options = test_job_options();
  options.monitor.enabled = true;
  options.monitor.interval = std::chrono::milliseconds(interval_ms);
  options.monitor.dir = dir;
  return options;
}

/// A busy enough workload that several monitor ticks see live counters.
void chatter(Mph& h) {
  const Comm& comm = h.comp_comm();
  if (comm.size() < 2) return;
  for (int i = 0; i < 20; ++i) {
    if (comm.rank() == 0) {
      comm.send(i, 1, 5);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else if (comm.rank() == 1) {
      int v = 0;
      comm.recv(v, 0, 5);
    }
  }
}

std::string slurp(const std::string& path) {
  return mph::util::read_file(path).value_or("");
}

}  // namespace

TEST(MetricsPublish, JsonlRoundTripsThroughParser) {
  const minimpi::JobReport report = run_mph_job(
      "BEGIN\nocean\nEND\n",
      {TestExec{{"ocean"}, "", 2, [](Mph& h, const Comm&) { chatter(h); }}},
      {}, publishing_options(fresh_dir("roundtrip"), 0));
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.metrics.has_value());
  const MetricsSnapshot& snap = *report.metrics;

  const MetricsSnapshot back = mon::parse_snapshot(snap.to_jsonl());
  EXPECT_EQ(back.seq, snap.seq);
  EXPECT_EQ(back.t_ns, snap.t_ns);
  EXPECT_EQ(back.comm.messages, snap.comm.messages);
  EXPECT_EQ(back.comm.payload_bytes, snap.comm.payload_bytes);
  EXPECT_EQ(back.comm.wildcard_recvs, snap.comm.wildcard_recvs);
  EXPECT_EQ(back.comm.messages_by_context, snap.comm.messages_by_context);
  ASSERT_EQ(back.ranks.size(), snap.ranks.size());
  for (std::size_t i = 0; i < snap.ranks.size(); ++i) {
    const RankMetrics& a = snap.ranks[i];
    const RankMetrics& b = back.ranks[i];
    EXPECT_EQ(b.world_rank, a.world_rank);
    EXPECT_EQ(b.component, a.component);
    EXPECT_EQ(b.alive, a.alive);
    EXPECT_EQ(b.sends, a.sends);
    EXPECT_EQ(b.send_bytes, a.send_bytes);
    EXPECT_EQ(b.delivered, a.delivered);
    EXPECT_EQ(b.delivered_bytes, a.delivered_bytes);
    EXPECT_EQ(b.matches, a.matches);
    EXPECT_EQ(b.collectives, a.collectives);
    EXPECT_EQ(b.blocked_ns, a.blocked_ns);
    EXPECT_EQ(b.queue_high_water, a.queue_high_water);
    EXPECT_EQ(b.handshake_ns, a.handshake_ns);
    EXPECT_EQ(b.match_latency.count, a.match_latency.count);
    EXPECT_EQ(b.match_latency.sum, a.match_latency.sum);
    EXPECT_EQ(b.match_latency.buckets, a.match_latency.buckets);
    EXPECT_EQ(b.values, a.values);
  }
}

TEST(MetricsPublish, ParserRejectsNonMetricsDocuments) {
  EXPECT_THROW(mon::parse_snapshot("{\"traceEvents\": []}"),
               std::runtime_error);
  EXPECT_THROW(mon::parse_snapshot("not json at all"), std::runtime_error);
  EXPECT_TRUE(mon::looks_like_metrics(
      "{\"kind\": \"mph_metrics\", \"seq\": 1, \"tNs\": 2}\n"
      "{\"kind\": \"mph_metrics\", \"seq\": 2, \"tNs\": 3}\n"));
  EXPECT_FALSE(mon::looks_like_metrics("{\"traceEvents\": []}"));
  EXPECT_FALSE(mon::looks_like_metrics("garbage"));
}

TEST(MetricsPublish, MonitorWritesJsonlAndExposition) {
  const std::string dir = fresh_dir("files");
  minimpi::JobOptions options = publishing_options(dir);
  const minimpi::JobReport report = run_mph_job(
      "BEGIN\nocean\natmosphere\nEND\n",
      {TestExec{{"ocean"}, "", 2, [](Mph& h, const Comm&) { chatter(h); }},
       TestExec{{"atmosphere"}, "", 1, [](Mph&, const Comm&) {}}},
      {}, options);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.metrics.has_value());

  // JSONL: at least the final stop() publish, every line parseable, and the
  // last line's counters equal the (exact) JobReport snapshot — the job was
  // quiescent for both.
  const std::string jsonl = options.monitor.jsonl_path();
  ASSERT_TRUE(std::filesystem::exists(jsonl));
  std::ifstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  std::optional<MetricsSnapshot> last;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    last = mon::parse_snapshot(line);
  }
  ASSERT_GE(lines, 1u);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->comm.messages, report.metrics->comm.messages);
  ASSERT_EQ(last->ranks.size(), report.metrics->ranks.size());
  EXPECT_EQ(last->ranks[0].sends, report.metrics->ranks[0].sends);
  EXPECT_EQ(last->ranks[0].component, "ocean");

  // The helper the CLI uses finds that same last line.
  const std::optional<std::string> tail = mon::last_jsonl_line(jsonl);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(mon::parse_snapshot(*tail).seq, last->seq);

  // Prometheus exposition: job-wide counters plus labelled per-rank series.
  const std::string prom = slurp(options.monitor.exposition_path());
  EXPECT_NE(prom.find("mph_messages_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mph_sends_total counter"), std::string::npos);
  EXPECT_NE(prom.find("component=\"ocean\""), std::string::npos);
  EXPECT_NE(prom.find("mph_match_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("mph_alive"), std::string::npos);
}

TEST(MetricsPublish, SocketServesLiveSnapshots) {
  const std::string dir = fresh_dir("socket");
  minimpi::JobOptions options = publishing_options(dir);
  const std::string socket_path = options.monitor.socket_path();

  std::mutex mutex;
  std::optional<MetricsSnapshot> live;
  const minimpi::JobReport report = run_mph_job(
      "BEGIN\nocean\nEND\n",
      {TestExec{{"ocean"}, "", 2,
                [&](Mph& h, const Comm&) {
                  chatter(h);
                  if (h.local_proc_id() != 0) return;
                  // Poll the monitor's socket from inside the running job —
                  // exactly what an operator's `mph top` does.
                  for (int attempt = 0; attempt < 400; ++attempt) {
                    if (const auto line = mon::read_socket_line(socket_path)) {
                      const std::lock_guard<std::mutex> lock(mutex);
                      live = mon::parse_snapshot(*line);
                      return;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                  }
                }}},
      {}, options);
  ASSERT_TRUE(report.ok) << report.abort_reason;
#if defined(__unix__) || defined(__APPLE__)
  const std::lock_guard<std::mutex> lock(mutex);
  ASSERT_TRUE(live.has_value()) << "no snapshot served over " << socket_path;
  EXPECT_GE(live->seq, 1u);
  EXPECT_EQ(live->ranks.size(), 2u);
  // The socket dies with the job.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
#endif
}

TEST(MetricsPublish, TopViewComputesRatesBetweenSnapshots) {
  MetricsSnapshot prev;
  prev.seq = 1;
  prev.t_ns = 1'000'000'000;
  MetricsSnapshot cur;
  cur.seq = 2;
  cur.t_ns = 3'000'000'000;  // 2 s later
  cur.comm.messages = 600;
  for (int r = 0; r < 2; ++r) {
    RankMetrics p;
    p.world_rank = r;
    p.component = "ocean";
    p.delivered = 100;
    p.delivered_bytes = 1000;
    p.blocked_ns = 0;
    prev.ranks.push_back(p);

    RankMetrics c = p;
    c.delivered = 300;                  // +200 per rank over 2 s
    c.delivered_bytes = 5000;           // +4000 per rank over 2 s
    c.blocked_ns = 1'000'000'000;       // each rank blocked half the window
    c.queue_depth = 3;
    cur.ranks.push_back(c);
  }

  const mon::TopView view = mon::build_top_view(&prev, cur);
  EXPECT_EQ(view.seq, 2u);
  EXPECT_EQ(view.ranks, 2);
  EXPECT_EQ(view.alive, 2);
  ASSERT_EQ(view.rows.size(), 1u);
  const mon::TopRow& row = view.rows[0];
  EXPECT_EQ(row.component, "ocean");
  EXPECT_EQ(row.ranks, 2);
  EXPECT_NEAR(row.msgs_per_s, 200.0, 1e-6);    // 400 msgs over 2 s
  EXPECT_NEAR(row.bytes_per_s, 4000.0, 1e-6);  // 8000 bytes over 2 s
  EXPECT_NEAR(row.blocked_pct, 50.0, 1e-6);
  EXPECT_EQ(row.queue_depth, 6u);

  const std::string rendered = mon::render_top(view);
  EXPECT_NE(rendered.find("COMPONENT"), std::string::npos);
  EXPECT_NE(rendered.find("ocean"), std::string::npos);
  EXPECT_NE(rendered.find("BLOCKED%"), std::string::npos);
  EXPECT_NE(rendered.find("50.0"), std::string::npos);

  // Without a previous snapshot the rates stay zero instead of exploding.
  const mon::TopView first = mon::build_top_view(nullptr, cur);
  EXPECT_EQ(first.rows[0].msgs_per_s, 0.0);
  EXPECT_EQ(first.rows[0].blocked_pct, 0.0);
}
