// mph_prof against real traced jobs: the critical path stitches across
// every MPH execution mode, stays sound (partial, warned, never wrong)
// under ring overflow, accounts for the measured wall time, and blames a
// seeded imbalance on the slow component hard enough to drive
// weights_from_critical_path toward the fast one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/coupler/decomp.hpp"
#include "src/coupler/rebalance.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/minimpi/prof/trace_load.hpp"
#include "tests/mph/mph_test_util.hpp"
#include "tools/mode_scenarios.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;
using minimpi::TraceReport;
using minimpi::prof::Graph;
using minimpi::prof::Profile;

namespace {

minimpi::JobOptions traced_options() {
  minimpi::JobOptions options = test_job_options();
  options.trace.enabled = true;
  return options;
}

/// Fraction of the job wall covered by the critical path.  The path is
/// contiguous from the origin rank's launch to the last join, so the only
/// uncovered time is the launch skew between rank threads.
double coverage(const Profile& p) {
  return p.wall_ns() > 0 ? static_cast<double>(p.path_total_ns) /
                               static_cast<double>(p.wall_ns())
                         : 0.0;
}

TEST(ProfJobs, StitchesAllFiveExecutionModes) {
  for (const char* mode : {"scse", "scme", "mcse", "mcme", "mime"}) {
    SCOPED_TRACE(mode);
    const auto scenario = mph_tools::make_mode_scenario(mode, 2);
    ASSERT_TRUE(scenario.has_value());
    const std::vector<minimpi::ExecSpec> specs =
        mph_tools::make_exec_specs(*scenario);
    const minimpi::JobReport report =
        minimpi::run_mpmd(specs, traced_options());
    ASSERT_TRUE(report.ok) << mode << ": " << report.abort_reason;
    ASSERT_TRUE(report.trace.has_value());

    const Profile p = Graph::build(*report.trace).profile();
    EXPECT_GT(p.path_total_ns, 0u);
    EXPECT_EQ(p.unresolved_flows, 0u) << "nothing dropped, all flows stitch";
    EXPECT_EQ(p.dropped_events, 0u);
    // The path is exactly contiguous from the job start to the last join,
    // so the accounting closes: path total == wall, coverage 100%.
    ASSERT_FALSE(p.path.empty());
    EXPECT_EQ(p.path.front().t_start_ns, p.job_start_ns);
    EXPECT_EQ(p.path.back().t_end_ns, p.job_end_ns);
    EXPECT_EQ(p.path_total_ns, p.wall_ns());
    for (std::size_t i = 1; i < p.path.size(); ++i) {
      EXPECT_EQ(p.path[i].t_start_ns, p.path[i - 1].t_end_ns) << i;
    }
  }
}

TEST(ProfJobs, CriticalPathMatchesWallTimeWithinFivePercent) {
  // Seed real compute so wall >> launch skew, then require the accounting
  // to close: the path total equals the traced wall within 5%.
  const std::string registry = "BEGIN\nleft\nright\nEND\n";
  const minimpi::JobReport report = run_mph_job(
      registry,
      {TestExec{{"left"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int step = 0; step < 4; ++step) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                    h.send(step, "right", 0, 5);
                    int ack = 0;
                    h.recv(ack, "right", 0, 6);
                  }
                }},
       TestExec{{"right"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int step = 0; step < 4; ++step) {
                    int v = 0;
                    h.recv(v, "left", 0, 5);
                    h.send(v, "left", 0, 6);
                  }
                }}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const Profile p = Graph::build(*report.trace).profile();
  EXPECT_GE(p.wall_ns(), 40'000'000u) << "four 10 ms steps";
  EXPECT_DOUBLE_EQ(coverage(p), 1.0) << "well inside the 5% tolerance";
  EXPECT_EQ(p.unresolved_flows, 0u);
}

TEST(ProfJobs, RingOverflowYieldsPartialPathWithWarningNotACrash) {
  minimpi::JobOptions options = traced_options();
  options.trace.ring_capacity = 32;  // far fewer than the job records

  const std::string registry = "BEGIN\nproducer\nconsumer\nEND\n";
  const minimpi::JobReport report = run_mph_job(
      registry,
      {TestExec{{"producer"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int i = 0; i < 200; ++i) {
                    h.send(i, "consumer", 0, 3);
                  }
                }},
       TestExec{{"consumer"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int i = 0; i < 200; ++i) {
                    int v = 0;
                    h.recv(v, "producer", 0, 3);
                  }
                }}},
      {}, options);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  std::uint64_t dropped = 0;
  for (const minimpi::RankTrace& r : report.trace->ranks) {
    dropped += r.dropped;
  }
  ASSERT_GT(dropped, 0u) << "the test must actually overflow the rings";

  // The analysis stays sound: a partial path inside the wall, with the
  // explicit warning carrying the real numbers.
  const Profile p = Graph::build(*report.trace).profile();
  EXPECT_GT(p.path_total_ns, 0u);
  EXPECT_LE(p.path_total_ns, p.wall_ns());
  EXPECT_EQ(p.dropped_events, dropped);
  const std::string text = minimpi::prof::render_report(p);
  EXPECT_NE(text.find("warning: partial critical path — "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("flow edges unresolved (ring dropped " +
                      std::to_string(dropped) + " events)"),
            std::string::npos)
      << text;
}

TEST(ProfJobs, SeededImbalanceBlamesTheSlowComponentAndShiftsWeights) {
  // Lock-step coupling where "slowmodel" computes 3x longer per step: the
  // critical path must blame it for the bulk of the job, and the derived
  // weights must hand Decomp::weighted more work on the fast rank.
  const std::string registry = "BEGIN\nslowmodel\nfastmodel\nEND\n";
  constexpr int kSteps = 6;
  const minimpi::JobReport report = run_mph_job(
      registry,
      {TestExec{{"slowmodel"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int step = 0; step < kSteps; ++step) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(9));
                    h.send(step, "fastmodel", 0, 11);
                    int ack = 0;
                    h.recv(ack, "fastmodel", 0, 12);
                  }
                }},
       TestExec{{"fastmodel"}, "", 1,
                [](Mph& h, const Comm&) {
                  for (int step = 0; step < kSteps; ++step) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(3));
                    int v = 0;
                    h.recv(v, "slowmodel", 0, 11);
                    h.send(v, "slowmodel", 0, 12);
                  }
                }}},
      {}, traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const Graph graph = Graph::build(*report.trace);
  const Profile p = graph.profile();
  const std::vector<minimpi::prof::ComponentBlame> blame = p.components();
  ASSERT_FALSE(blame.empty());
  EXPECT_EQ(blame.front().component, "slowmodel");
  EXPECT_GE(blame.front().share, 0.6)
      << "slowmodel sleeps 3x per step and must own the path";

  // What-if agrees with the blame: speeding the slow component helps more.
  const minimpi::prof::WhatIf slow_wi =
      minimpi::prof::what_if_component(graph, p, "slowmodel", 0.5);
  const minimpi::prof::WhatIf fast_wi =
      minimpi::prof::what_if_component(graph, p, "fastmodel", 0.5);
  EXPECT_GT(slow_wi.saved_ns(), fast_wi.saved_ns());

  // And the rebalance bridge moves work toward the fast rank.
  const coupler::Decomp current = coupler::Decomp::block(100, 2);
  const std::vector<minimpi::rank_t> world_ranks = {0, 1};  // slow, fast
  const std::vector<double> weights =
      coupler::weights_from_critical_path(p, current, world_ranks);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_LT(weights[0], weights[1]);
  const coupler::Decomp shifted = coupler::Decomp::weighted(100, weights);
  EXPECT_GT(shifted.local_size(1), shifted.local_size(0));
  EXPECT_LT(shifted.local_size(0), current.local_size(0));
}

TEST(ProfJobs, ExportLoadRoundTripOnARealJob) {
  const auto scenario = mph_tools::make_mode_scenario("scme", 2);
  ASSERT_TRUE(scenario.has_value());
  const minimpi::JobReport report = minimpi::run_mpmd(
      mph_tools::make_exec_specs(*scenario), traced_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(report.trace.has_value());

  const Profile direct = Graph::build(*report.trace).profile();
  const minimpi::prof::LoadedTrace loaded =
      minimpi::prof::load_chrome_trace(report.trace->to_chrome_json());
  const Profile reloaded = Graph::build(loaded.report).profile();
  EXPECT_EQ(reloaded.path_total_ns, direct.path_total_ns);
  EXPECT_EQ(reloaded.job_end_ns, direct.job_end_ns);
  EXPECT_EQ(reloaded.path.size(), direct.path.size());
  EXPECT_EQ(reloaded.unresolved_flows, direct.unresolved_flows);

  // The rollup `mph_inspect trace` renders from the loaded report equals
  // the one the writer computed from the live report.
  const auto traffic = [](const TraceReport& r) {
    std::vector<std::tuple<std::string, std::string, std::uint64_t,
                           std::uint64_t>>
        rows;
    for (const TraceReport::Traffic& t : r.component_traffic()) {
      rows.emplace_back(t.src, t.dest, t.messages, t.bytes);
    }
    return rows;
  };
  const auto blocked = [](const TraceReport& r) {
    std::vector<std::tuple<minimpi::rank_t, std::string, std::uint64_t,
                           std::uint64_t, std::uint64_t>>
        rows;
    for (const TraceReport::RankBlocked& b : r.blocked_breakdown()) {
      rows.emplace_back(b.world_rank, b.track, b.recv_wait_ns,
                        b.collective_wait_ns, b.handshake_ns);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_FALSE(traffic(*report.trace).empty());
  EXPECT_EQ(traffic(loaded.report), traffic(*report.trace));
  EXPECT_EQ(blocked(loaded.report), blocked(*report.trace));
  EXPECT_EQ(loaded.report.comm.wildcard_recvs,
            report.trace->comm.wildcard_recvs);
  EXPECT_EQ(loaded.report.comm.messages_by_context,
            report.trace->comm.messages_by_context);
}

}  // namespace
