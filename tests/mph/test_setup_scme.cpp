// SCME mode (paper §2.3, §4.1): several single-component executables, each
// calling MPH_components_setup with its own name-tag.
#include <gtest/gtest.h>

#include "src/minimpi/collectives.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;

namespace {
const std::string kPaperRegistry = R"(BEGIN
atmosphere
ocean
land
ice
coupler
END
)";
}  // namespace

TEST(SetupSCME, PaperFiveComponentClimateSystem) {
  // atmosphere:4, ocean:3, land:2, ice:2, coupler:1 — 12 ranks total.
  auto check = [](Mph& h, const Comm& world) {
    EXPECT_EQ(h.total_components(), 5);
    EXPECT_EQ(h.num_executables(), 5);
    EXPECT_EQ(h.global_proc_id(), world.rank());
    // Component communicator covers exactly this executable.
    EXPECT_EQ(h.comp_comm().size(), h.exe_up_proc_limit() -
                                        h.exe_low_proc_limit() + 1);
    EXPECT_EQ(h.local_proc_id(),
              world.rank() - h.exe_low_proc_limit());
    // Directory is identical everywhere: check the full layout.
    const Directory& dir = h.directory();
    EXPECT_EQ(dir.component("atmosphere").global_low, 0);
    EXPECT_EQ(dir.component("atmosphere").global_high, 3);
    EXPECT_EQ(dir.component("ocean").global_low, 4);
    EXPECT_EQ(dir.component("ocean").global_high, 6);
    EXPECT_EQ(dir.component("land").global_low, 7);
    EXPECT_EQ(dir.component("ice").global_low, 9);
    EXPECT_EQ(dir.component("coupler").global_low, 11);
    EXPECT_EQ(dir.component("coupler").global_high, 11);
  };
  run_mph_ok(kPaperRegistry,
             {TestExec{{"atmosphere"}, "", 4, check},
              TestExec{{"ocean"}, "", 3, check},
              TestExec{{"land"}, "", 2, check},
              TestExec{{"ice"}, "", 2, check},
              TestExec{{"coupler"}, "", 1, check}});
}

TEST(SetupSCME, RegistrationFileOrderIsIrrelevant) {
  // §4.1: "The order of file names are irrelevant."  Launch order ocean
  // first even though the file lists atmosphere first.
  run_mph_ok(kPaperRegistry,
             {TestExec{{"ocean"}, "", 2,
                       [](Mph& h, const Comm&) {
                         EXPECT_EQ(h.comp_name(), "ocean");
                         EXPECT_EQ(h.exe_low_proc_limit(), 0);
                       }},
              TestExec{{"coupler"}, "", 1, nullptr},
              TestExec{{"atmosphere"}, "", 2,
                       [](Mph& h, const Comm&) {
                         EXPECT_EQ(h.directory().component("atmosphere")
                                       .global_low,
                                   3);
                       }},
              TestExec{{"land"}, "", 1, nullptr},
              TestExec{{"ice"}, "", 1, nullptr}});
}

TEST(SetupSCME, ArbitraryNameTags) {
  // Nothing is hardcoded: NCAR_atm works as well as atmosphere.
  run_mph_ok("BEGIN\nNCAR_atm\nUCLA_ocn\nEND\n",
             {TestExec{{"NCAR_atm"}, "", 2,
                       [](Mph& h, const Comm&) {
                         EXPECT_EQ(h.comp_name(), "NCAR_atm");
                       }},
              TestExec{{"UCLA_ocn"}, "", 2, nullptr}});
}

TEST(SetupSCME, ComponentCommunicatorsAreDisjointAndUsable) {
  run_mph_ok(kPaperRegistry,
             {TestExec{{"atmosphere"}, "", 3,
                       [](Mph& h, const Comm&) {
                         // Collective inside the component only.
                         const int sum = minimpi::allreduce_value(
                             h.comp_comm(), 1, minimpi::op::Sum{});
                         EXPECT_EQ(sum, 3);
                       }},
              TestExec{{"ocean"}, "", 2,
                       [](Mph& h, const Comm&) {
                         const int sum = minimpi::allreduce_value(
                             h.comp_comm(), 1, minimpi::op::Sum{});
                         EXPECT_EQ(sum, 2);
                       }},
              TestExec{{"land"}, "", 1, nullptr},
              TestExec{{"ice"}, "", 1, nullptr},
              TestExec{{"coupler"}, "", 1, nullptr}});
}

TEST(SetupSCME, FastPathAndGeneralPathAgree) {
  // §6.1's one-split layout is the general path's single-block case: every
  // executable's split-by-executable communicator is its component's.
  run_mph_ok(kPaperRegistry,
             {TestExec{{"atmosphere"}, "", 2,
                       [](Mph& h, const Comm&) {
                         EXPECT_EQ(h.comp_comm().size(), 2);
                         EXPECT_EQ(h.exec_comm().size(), 2);
                         EXPECT_TRUE(h.comp_comm().same_state(h.exec_comm()));
                       }},
              TestExec{{"ocean"}, "", 2, nullptr},
              TestExec{{"land"}, "", 1, nullptr},
              TestExec{{"ice"}, "", 1, nullptr},
              TestExec{{"coupler"}, "", 1, nullptr}});
}

TEST(SetupSCME, HandshakeCostsExactlyOneSplitForPureSCME) {
  // §6.1 pinned deterministically: all-single-component applications are
  // handshaken with exactly ONE comm_split (one fresh context job-wide):
  // the split-by-executable IS the component split when every executable
  // is single-component.
  const minimpi::JobReport report = run_mph_job(
      kPaperRegistry, {TestExec{{"atmosphere"}, "", 1, nullptr},
                       TestExec{{"ocean"}, "", 1, nullptr},
                       TestExec{{"land"}, "", 1, nullptr},
                       TestExec{{"ice"}, "", 1, nullptr},
                       TestExec{{"coupler"}, "", 1, nullptr}});
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.stats.contexts_allocated, 1u);
}

TEST(SetupSCME, SplitCountScalesWithBlockStructure) {
  // §6.2 pinned deterministically: the general layout costs one world
  // split (executables) plus one split per disjoint multi-component block
  // plus one per overlapping component.  Here: world + blockA(disjoint,
  // 1 split) + blockB(2 overlapping components, 2 splits) = 4 contexts;
  // the single-component coupler reuses its executable communicator.
  const std::string registry = R"(BEGIN
Multi_Component_Begin
a1 0 1
a2 2 3
Multi_Component_End
Multi_Component_Begin
b1 0 1
b2 0 1
Multi_Component_End
coupler
END
)";
  const minimpi::JobReport report = run_mph_job(
      registry, {TestExec{{"a1", "a2"}, "", 4, nullptr},
                 TestExec{{"b1", "b2"}, "", 2, nullptr},
                 TestExec{{"coupler"}, "", 1, nullptr}});
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.stats.contexts_allocated, 4u);
}

TEST(SetupSCME, SingleExecutableSCSEDegenerateCase) {
  // SCSE (§2.1): the whole program is one component.
  run_mph_ok("BEGIN\nsolo\nEND\n",
             {TestExec{{"solo"}, "", 4, [](Mph& h, const Comm& world) {
                         EXPECT_EQ(h.total_components(), 1);
                         EXPECT_EQ(h.comp_comm().size(), world.size());
                         EXPECT_EQ(h.exe_low_proc_limit(), 0);
                         EXPECT_EQ(h.exe_up_proc_limit(), 3);
                       }}});
}

TEST(SetupSCME, SizeAssertionInRegistryEnforced) {
  // "coupler 0 3" demands exactly 4 ranks; give it 2 -> setup error.
  const std::string err =
      run_mph_error("BEGIN\ncoupler 0 3\nEND\n",
                    {TestExec{{"coupler"}, "", 2, nullptr}});
  EXPECT_NE(err.find("processors"), std::string::npos);
}

TEST(SetupSCME, VisualizationComponentInsertedWithoutCodeChange) {
  // §4.1's motivating scenario: adding a graphics component is a pure
  // registry + launch change.
  const std::string registry =
      "BEGIN\natmosphere\nocean\nland\nice\ncoupler\nvisualization\nEND\n";
  run_mph_ok(registry,
             {TestExec{{"atmosphere"}, "", 2, nullptr},
              TestExec{{"ocean"}, "", 1, nullptr},
              TestExec{{"land"}, "", 1, nullptr},
              TestExec{{"ice"}, "", 1, nullptr},
              TestExec{{"coupler"}, "", 1, nullptr},
              TestExec{{"visualization"}, "", 1,
                       [](Mph& h, const Comm&) {
                         EXPECT_EQ(h.total_components(), 6);
                         EXPECT_EQ(h.comp_name(), "visualization");
                       }}});
}

TEST(SetupSCME, HandshakeSendsOnlyTheRegistryAndSignatureExchange) {
  // The communicators come from groups every rank knows after the
  // signature allgather, so the handshake's only messages are the registry
  // broadcast (n - 1 at n = 4) and the Bruck signature allgather
  // (n * ceil(log2 n) = 8).  A message-based split would add 2(n - 1) per
  // split.
  const minimpi::JobReport report = run_mph_job(
      "BEGIN\natmosphere\nocean\nland\ncoupler\nEND\n",
      {TestExec{{"atmosphere"}, "", 1, nullptr},
       TestExec{{"ocean"}, "", 1, nullptr},
       TestExec{{"land"}, "", 1, nullptr},
       TestExec{{"coupler"}, "", 1, nullptr}});
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.stats.messages, 3u + 8u);
  EXPECT_EQ(report.stats.contexts_allocated, 1u);
}
