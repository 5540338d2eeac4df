// Chrome-JSON loader round trip: a TraceReport exported with
// to_chrome_json and re-loaded with load_chrome_trace must yield the same
// critical path — including flow ids, phase tags, drop counts, and the
// rollup counters — and an annotated trace must re-load cleanly (the
// cat:"critical" overlay is skipped, not double-counted).
#include "src/minimpi/prof/trace_load.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/minimpi/trace.hpp"
#include "src/util/strings.hpp"

using namespace minimpi;
using namespace minimpi::prof;

namespace {

TraceEvent span_event(TraceOp op, const char* name, std::uint64_t t0,
                      std::uint64_t t1, tag_t tag = any_tag,
                      std::uint64_t flow = 0) {
  TraceEvent e;
  e.op = op;
  e.span = true;
  e.name = name;
  e.t_start_ns = t0;
  e.t_end_ns = t1;
  e.tag = tag;
  e.flow = flow;
  return e;
}

TraceEvent send_event(std::uint64_t t, std::uint64_t flow) {
  TraceEvent e;
  e.op = TraceOp::send;
  e.span = false;
  e.name = "send";
  e.t_start_ns = t;
  e.t_end_ns = t;
  e.flow = flow;
  e.bytes = 64;
  return e;
}

TraceReport sample_report() {
  TraceReport report;
  RankTrace r0;
  r0.world_rank = 0;
  r0.track = "ocean:0";
  r0.events = {
      span_event(TraceOp::phase, "handshake", 10, 50, kPhaseHandshake),
      send_event(600, 42),
      span_event(TraceOp::phase, "rank_main", 0, 1000, kPhaseRankMain)};
  r0.dropped = 3;
  r0.queue_high_water = 2;
  r0.counters.emplace_back("output_lines(ocean.log)", 7);
  report.ranks.push_back(std::move(r0));

  RankTrace r1;
  r1.world_rank = 1;
  r1.track = "atmosphere:0";
  r1.events = {
      span_event(TraceOp::recv, "recv", 100, 700, any_tag, 42),
      span_event(TraceOp::phase, "rank_main", 0, 1400, kPhaseRankMain)};
  report.ranks.push_back(std::move(r1));

  report.comm.wildcard_recvs = 4;
  report.comm.messages_by_context.emplace_back(kWorldContext, 9);
  return report;
}

TEST(ProfTraceLoad, RoundTripPreservesTheCriticalPath) {
  const TraceReport original = sample_report();
  const Profile before = Graph::build(original).profile();

  const LoadedTrace loaded = load_chrome_trace(original.to_chrome_json());
  const Profile after = Graph::build(loaded.report).profile();

  EXPECT_EQ(after.job_start_ns, before.job_start_ns);
  EXPECT_EQ(after.job_end_ns, before.job_end_ns);
  EXPECT_EQ(after.path_total_ns, before.path_total_ns);
  EXPECT_EQ(after.unresolved_flows, before.unresolved_flows);
  EXPECT_EQ(after.dropped_events, before.dropped_events);
  ASSERT_EQ(after.path.size(), before.path.size());
  for (std::size_t i = 0; i < after.path.size(); ++i) {
    EXPECT_EQ(after.path[i].world_rank, before.path[i].world_rank) << i;
    EXPECT_EQ(after.path[i].kind, before.path[i].kind) << i;
    EXPECT_EQ(after.path[i].t_start_ns, before.path[i].t_start_ns) << i;
    EXPECT_EQ(after.path[i].t_end_ns, before.path[i].t_end_ns) << i;
    EXPECT_EQ(after.path[i].flow, before.path[i].flow) << i;
  }

  // Metadata carried by the rollup survives the round trip too.
  ASSERT_EQ(loaded.report.ranks.size(), 2u);
  EXPECT_EQ(loaded.report.ranks[0].track, "ocean:0");
  EXPECT_EQ(loaded.report.ranks[0].dropped, 3u);
  EXPECT_EQ(loaded.report.ranks[0].queue_high_water, 2u);
  ASSERT_EQ(loaded.report.ranks[0].counters.size(), 1u);
  EXPECT_EQ(loaded.report.ranks[0].counters[0].first,
            "output_lines(ocean.log)");
  EXPECT_EQ(loaded.report.comm.wildcard_recvs, 4u);
}

TEST(ProfTraceLoad, AnnotatedTraceReloadsWithoutDoubleCounting) {
  const TraceReport original = sample_report();
  const Profile profile = Graph::build(original).profile();
  const std::string annotated = annotate_chrome_json(original, profile);

  const LoadedTrace loaded = load_chrome_trace(annotated);
  const Profile again = Graph::build(loaded.report).profile();
  EXPECT_EQ(again.path_total_ns, profile.path_total_ns);
  EXPECT_EQ(again.path.size(), profile.path.size());
  // The overlay added events to the document but none to the timelines.
  std::size_t events = 0;
  for (const RankTrace& r : loaded.report.ranks) events += r.events.size();
  std::size_t original_events = 0;
  for (const RankTrace& r : original.ranks) {
    original_events += r.events.size();
  }
  EXPECT_EQ(events, original_events);
}

TEST(ProfTraceLoad, RejectsNonTraceDocuments) {
  EXPECT_THROW((void)load_chrome_trace("{\"kind\": \"mph_metrics\"}"), Error);
}

TEST(ProfTraceLoad, LoadsFromDisk) {
  const TraceReport original = sample_report();
  const std::string path = ::testing::TempDir() + "mph_prof_roundtrip.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << original.to_chrome_json();
  }
  const std::optional<std::string> text = mph::util::read_file(path);
  ASSERT_TRUE(text.has_value());
  const LoadedTrace loaded = load_chrome_trace(*text);
  EXPECT_EQ(Graph::build(loaded.report).profile().path_total_ns,
            Graph::build(original).profile().path_total_ns);
}

}  // namespace
