// TraceReport metrics and export: the component-pair traffic matrix,
// per-context message counts + wildcard receives (also surfaced through
// CommStats), the blocked-time breakdown, per-channel output-line
// counters, queue-depth high water, and the Chrome trace-event JSON that
// Perfetto and `mph trace` consume.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/trace.hpp"
#include "src/util/json.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;
using minimpi::TraceReport;

namespace {

minimpi::JobOptions traced_options() {
  minimpi::JobOptions options = test_job_options();
  options.trace.enabled = true;
  return options;
}

// ocean on world ranks 0-1, atmosphere on world rank 2 (SCME).
const std::string kRegistry = "BEGIN\nocean\natmosphere\nEND\n";

}  // namespace

TEST(TraceReport, ComponentTrafficMatrix) {
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  if (h.local_proc_id() == 0) {
                    // Two messages ocean -> atmosphere over the world comm.
                    const std::vector<double> payload(16, 1.0);
                    h.world().send(std::span<const double>(payload), 2, 3);
                    h.world().send(std::span<const double>(payload), 2, 3);
                  }
                }},
       TestExec{{"atmosphere"}, "", 1,
                [](Mph& h, const Comm&) {
                  std::vector<double> payload(16);
                  h.world().recv(std::span<double>(payload), 0, 3);
                  h.world().recv(std::span<double>(payload), 0, 3);
                }}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  // The matrix covers *all* traffic — the handshake's own collectives and
  // the registry broadcast included — so assert lower bounds: our two data
  // messages dominate the byte count.
  const std::vector<TraceReport::Traffic> traffic =
      report.trace->component_traffic();
  const auto ocean_to_atm = std::find_if(
      traffic.begin(), traffic.end(), [](const TraceReport::Traffic& t) {
        return t.src == "ocean" && t.dest == "atmosphere";
      });
  ASSERT_NE(ocean_to_atm, traffic.end());
  EXPECT_GE(ocean_to_atm->messages, 2u);
  EXPECT_GE(ocean_to_atm->bytes, 2 * 16 * sizeof(double));
}

TEST(TraceReport, WildcardAndContextCountsInStatsAndTrace) {
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  // One message inside the component communicator (its own
                  // context) received with a wildcard source.
                  const Comm& comm = h.comp_comm();
                  if (comm.rank() == 0) {
                    comm.send(1, 1, 0);
                  } else {
                    int v = 0;
                    comm.recv(v, minimpi::any_source, 0);
                  }
                }},
       TestExec{{"atmosphere"}, "", 1, [](Mph&, const Comm&) {}}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;

  // CommStats carries the counts whether or not tracing is on.
  EXPECT_GE(report.stats.wildcard_recvs, 1u);
  ASSERT_FALSE(report.stats.messages_by_context.empty());
  bool saw_non_world_context = false;
  std::uint64_t total = 0;
  for (const auto& [context, messages] : report.stats.messages_by_context) {
    total += messages;
    if (context != minimpi::kWorldContext) saw_non_world_context = true;
  }
  EXPECT_TRUE(saw_non_world_context)
      << "component-comm delivery should count under its own context";
  EXPECT_GE(total, 1u);

  // The trace report embeds the same CommStats (single source of truth).
  ASSERT_TRUE(report.trace.has_value());
  EXPECT_EQ(report.trace->comm.wildcard_recvs, report.stats.wildcard_recvs);
  EXPECT_EQ(report.trace->comm.messages_by_context,
            report.stats.messages_by_context);
}

TEST(TraceReport, BlockedBreakdownSeparatesRecvAndCollectiveWait) {
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  const Comm& comm = h.comp_comm();
                  if (comm.rank() == 0) {
                    // Keep the receiver blocked long enough to measure.
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    comm.send(1, 1, 0);
                    minimpi::barrier(comm);
                  } else {
                    int v = 0;
                    comm.recv(v, 0, 0);
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    minimpi::barrier(comm);
                  }
                }},
       TestExec{{"atmosphere"}, "", 1, [](Mph&, const Comm&) {}}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const std::vector<TraceReport::RankBlocked> blocked =
      report.trace->blocked_breakdown();
  ASSERT_EQ(blocked.size(), 3u);
  // World rank 1 (ocean:1) blocked >= ~50ms waiting for the receive; world
  // rank 0 (ocean:0) blocked >= ~50ms in the barrier.
  EXPECT_GE(blocked[1].recv_wait_ns, 20'000'000u) << blocked[1].track;
  EXPECT_GE(blocked[0].collective_wait_ns, 20'000'000u) << blocked[0].track;
}

TEST(TraceReport, OutputLineCountersAndQueueHighWater) {
  const std::string dir = ::testing::TempDir() + "mph_trace_report_logs";
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [&dir](Mph& h, const Comm&) {
                  const Comm& comm = h.comp_comm();
                  h.redirect_output(dir);
                  h.out() << "line one from " << h.comp_name() << "\n";
                  h.out() << "line two\n";
                  if (comm.rank() == 0) {
                    // Queue three messages before the receiver wakes up, so
                    // its mailbox depth peaks at >= 3.
                    for (int i = 0; i < 3; ++i) comm.send(i, 1, 0);
                  } else {
                    std::this_thread::sleep_for(std::chrono::milliseconds(30));
                    for (int i = 0; i < 3; ++i) {
                      int v = 0;
                      comm.recv(v, 0, 0);
                    }
                  }
                  h.finalize();
                }},
       TestExec{{"atmosphere"}, "", 1, [](Mph&, const Comm&) {}}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const minimpi::RankTrace& root = report.trace->ranks[0];
  bool found_counter = false;
  for (const auto& [name, value] : root.counters) {
    if (name.rfind("output_lines(", 0) == 0) {
      found_counter = true;
      EXPECT_EQ(value, 2u) << name;
      EXPECT_NE(name.find("ocean.log"), std::string::npos) << name;
    }
  }
  EXPECT_TRUE(found_counter) << "no output_lines counter on ocean:0";
  EXPECT_GE(report.trace->ranks[1].queue_high_water, 3u);
}

TEST(TraceReport, SendAndMatchingRecvShareOneNonzeroFlowId) {
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  if (h.local_proc_id() == 0) {
                    h.world().send(41, 2, 9);
                  }
                }},
       TestExec{{"atmosphere"}, "", 1,
                [](Mph& h, const Comm&) {
                  int v = 0;
                  h.world().recv(v, 0, 9);
                }}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  // The send instant on ocean:0's ring and the recv span on atmosphere's
  // ring carry the same nonzero flow id — the edge mph_prof stitches.
  std::uint64_t send_flow = 0;
  for (const minimpi::TraceEvent& e : report.trace->ranks[0].events) {
    if (e.op == minimpi::TraceOp::send && !e.span && e.tag == 9) {
      send_flow = e.flow;
    }
  }
  ASSERT_GT(send_flow, 0u) << "send instants must stamp a flow id";
  bool recv_matched = false;
  for (const minimpi::TraceEvent& e : report.trace->ranks[2].events) {
    if (e.flow == send_flow && e.op == minimpi::TraceOp::recv && e.span) {
      recv_matched = true;
    }
  }
  EXPECT_TRUE(recv_matched)
      << "the matching recv span must carry flow " << send_flow;

  // Flow ids are per-sender unique: no two send instants share one.
  std::vector<std::uint64_t> flows;
  for (const minimpi::RankTrace& r : report.trace->ranks) {
    for (const minimpi::TraceEvent& e : r.events) {
      if (e.op == minimpi::TraceOp::send && !e.span && e.flow != 0) {
        flows.push_back(e.flow);
      }
    }
  }
  std::sort(flows.begin(), flows.end());
  EXPECT_EQ(std::adjacent_find(flows.begin(), flows.end()), flows.end());
}

TEST(TraceReport, ChromeJsonIsParsableAndCarriesTracks) {
  const minimpi::JobReport report = run_mph_job(
      kRegistry,
      {TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  const Comm& comm = h.comp_comm();
                  if (comm.rank() == 0) {
                    comm.send(7, 1, 1);
                  } else {
                    int v = 0;
                    comm.recv(v, 0, 1);
                  }
                }},
       TestExec{{"atmosphere"}, "", 1, [](Mph&, const Comm&) {}}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const std::string json = report.trace->to_chrome_json();
  const util::JsonValue doc = util::JsonValue::parse(json);

  // Chrome trace-event structure: one thread_name metadata entry per rank
  // (that is what gives Perfetto its named tracks) plus X/i events.
  const util::JsonValue& events = doc.at("traceEvents");
  std::vector<std::string> named_tracks;
  std::size_t span_events = 0;
  for (const util::JsonValue& e : events.items()) {
    const std::string& name = e.at("name").as_string();
    const std::string& ph = e.at("ph").as_string();
    if (name == "thread_name" && ph == "M") {
      named_tracks.push_back(e.at("args").at("name").as_string());
    }
    if (ph == "X") {
      ++span_events;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
  }
  const std::vector<std::string> expected{"ocean:0", "ocean:1",
                                          "atmosphere:0"};
  EXPECT_EQ(named_tracks, expected);
  EXPECT_GT(span_events, 0u);

  // The mph metrics rollup rides along for `mph trace`.
  const util::JsonValue& mph_obj = doc.at("mph");
  EXPECT_EQ(mph_obj.at("ranks").items().size(), 3u);
  const util::JsonValue& traffic = mph_obj.at("componentTraffic");
  ASSERT_FALSE(traffic.items().empty());
  bool ocean_sends = false;
  for (const util::JsonValue& pair : traffic.items()) {
    if (pair.at("src").as_string() == "ocean" &&
        pair.at("messages").as_int() > 0) {
      ocean_sends = true;
    }
  }
  EXPECT_TRUE(ocean_sends);
}
