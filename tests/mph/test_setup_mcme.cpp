// MCME mode (paper §2.4, §4.3): several executables, each with several
// components — the paper's most flexible mechanism, reproduced with its
// exact 3-executable example.
#include <gtest/gtest.h>

#include "src/minimpi/collectives.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;

namespace {
// The paper's §4.3 registration file, scaled down 4x (ranges /4) so the
// job runs 16 ranks: exec1 = atm(0-3)+land(0-3)+chem(4), exec2 =
// ocean(0-3)+ice(4-7), exec3 = coupler.
const std::string kMcmeRegistry = R"(BEGIN
Multi_Component_Begin ! 1st multi-comp exec
atmosphere 0 3
land       0 3       ! overlap with atm
chemistry  4 4
Multi_Component_End
Multi_Component_Begin ! 2nd multi-comp exec
ocean 0 3
ice   4 7
Multi_Component_End
coupler               ! a single-comp exec
END
)";

TestExec atm_land_chem(std::function<void(Mph&, const Comm&)> body) {
  return TestExec{{"atmosphere", "land", "chemistry"}, "", 5, std::move(body)};
}
TestExec ocean_ice(std::function<void(Mph&, const Comm&)> body) {
  return TestExec{{"ocean", "ice"}, "", 8, std::move(body)};
}
TestExec coupler(std::function<void(Mph&, const Comm&)> body) {
  return TestExec{{"coupler"}, "", 2, std::move(body)};
}
}  // namespace

TEST(SetupMCME, PaperThreeExecutableLayout) {
  run_mph_ok(
      kMcmeRegistry,
      {atm_land_chem([](Mph& h, const Comm& world) {
         EXPECT_EQ(h.num_executables(), 3);
         EXPECT_EQ(h.total_components(), 6);
         EXPECT_EQ(h.exec_comm().size(), 5);
         EXPECT_EQ(h.exe_low_proc_limit(), 0);
         EXPECT_EQ(h.exe_up_proc_limit(), 4);
         if (world.rank() <= 3) {
           EXPECT_EQ(h.my_components(),
                     (std::vector<std::string>{"atmosphere", "land"}));
           EXPECT_EQ(h.comp_comm("atmosphere").size(), 4);
           EXPECT_EQ(h.comp_comm("land").size(), 4);
         } else {
           EXPECT_EQ(h.my_components(),
                     (std::vector<std::string>{"chemistry"}));
           EXPECT_EQ(h.comp_comm().size(), 1);
         }
       }),
       ocean_ice([](Mph& h, const Comm& world) {
         EXPECT_EQ(h.exec_comm().size(), 8);
         EXPECT_EQ(h.exe_low_proc_limit(), 5);
         EXPECT_EQ(h.exe_up_proc_limit(), 12);
         if (world.rank() <= 8) {
           EXPECT_EQ(h.comp_name(), "ocean");
           EXPECT_EQ(h.local_proc_id(), world.rank() - 5);
         } else {
           EXPECT_EQ(h.comp_name(), "ice");
           EXPECT_EQ(h.local_proc_id(), world.rank() - 9);
         }
       }),
       coupler([](Mph& h, const Comm&) {
         EXPECT_EQ(h.comp_name(), "coupler");
         EXPECT_EQ(h.comp_comm().size(), 2);
         EXPECT_EQ(h.exe_low_proc_limit(), 13);
         EXPECT_EQ(h.exe_up_proc_limit(), 14);
         // Directory sees every component's world placement.
         const Directory& dir = h.directory();
         EXPECT_EQ(dir.component("atmosphere").global_low, 0);
         EXPECT_EQ(dir.component("land").global_low, 0);
         EXPECT_EQ(dir.component("chemistry").global_low, 4);
         EXPECT_EQ(dir.component("ocean").global_low, 5);
         EXPECT_EQ(dir.component("ice").global_low, 9);
         EXPECT_EQ(dir.component("ice").global_high, 12);
         EXPECT_EQ(dir.component("coupler").global_low, 13);
       })});
}

TEST(SetupMCME, LaunchOrderIndependentOfRegistryOrder) {
  // The coupler executable launches first; matching is by names, not by
  // position in the registration file.
  run_mph_ok(kMcmeRegistry,
             {coupler([](Mph& h, const Comm&) {
                EXPECT_EQ(h.exe_low_proc_limit(), 0);
                EXPECT_EQ(h.directory().component("ocean").global_low, 7);
              }),
              atm_land_chem(nullptr), ocean_ice(nullptr)});
}

TEST(SetupMCME, CrossExecutableExchangeThroughDirectory) {
  // chemistry (1 rank) sends a field to each coupler rank using the
  // §5.2 name-addressed interface.
  run_mph_ok(
      kMcmeRegistry,
      {atm_land_chem([](Mph& h, const Comm&) {
         if (h.proc_in_component("chemistry")) {
           h.send(3.5, "coupler", 0, 11);
           h.send(4.5, "coupler", 1, 11);
         }
       }),
       ocean_ice(nullptr), coupler([](Mph& h, const Comm&) {
         double v = 0;
         h.recv(v, "chemistry", 0, 11);
         EXPECT_DOUBLE_EQ(v, h.local_proc_id() == 0 ? 3.5 : 4.5);
       })});
}

TEST(SetupMCME, OverlapCommunicatorsWithinExecutable) {
  run_mph_ok(
      kMcmeRegistry,
      {atm_land_chem([](Mph& h, const Comm& world) {
         if (world.rank() <= 3) {
           // Distinct contexts over identical processor sets; collectives
           // on both must not interfere.
           const Comm& atm = h.comp_comm("atmosphere");
           const Comm& lnd = h.comp_comm("land");
           EXPECT_NE(atm.context(), lnd.context());
           const int a = minimpi::allreduce_value(atm, 1, minimpi::op::Sum{});
           const int l =
               minimpi::allreduce_value(lnd, 100, minimpi::op::Sum{});
           EXPECT_EQ(a, 4);
           EXPECT_EQ(l, 400);
         }
       }),
       ocean_ice(nullptr), coupler(nullptr)});
}

TEST(SetupMCME, MixedWithUnrangedSingleExecutable) {
  // coupler has no range in the file: its size follows the launcher (2).
  run_mph_ok(kMcmeRegistry,
             {atm_land_chem(nullptr), ocean_ice(nullptr),
              coupler([](Mph& h, const Comm&) {
                EXPECT_EQ(h.directory().component("coupler").size(), 2);
              })});
}

TEST(SetupMCME, ExecutableSizeMismatchRejected) {
  // ocean-ice block needs exactly 8 ranks.
  const std::string err = run_mph_error(
      kMcmeRegistry, {atm_land_chem(nullptr),
                      TestExec{{"ocean", "ice"}, "", 6, nullptr},
                      coupler(nullptr)});
  EXPECT_NE(err.find("processors"), std::string::npos);
}

TEST(SetupMCME, DeclaredNamesMustMatchFileExactly) {
  // Declaring the components of exec 1 in a different order is an error:
  // the name list identifies the executable.
  const std::string err = run_mph_error(
      kMcmeRegistry,
      {TestExec{{"land", "atmosphere", "chemistry"}, "", 5, nullptr},
       ocean_ice(nullptr), coupler(nullptr)});
  EXPECT_NE(err.find("no matching entry"), std::string::npos);
}

TEST(SetupMCME, HandshakeSendsOnlyTheRegistryAndSignatureExchange) {
  // Four ranks, every split kind of §6.2: the world split, two overlap
  // splits (a, b) and one disjoint split (x, y).  Each is built from a
  // known group, so only the registry broadcast (3 messages) and the
  // signature allgather (8) are sent.
  const std::string registry = R"(BEGIN
Multi_Component_Begin
a 0 1
b 0 1
Multi_Component_End
Multi_Component_Begin
x 0 0
y 1 1
Multi_Component_End
END
)";
  const minimpi::JobReport report =
      run_mph_job(registry, {TestExec{{"a", "b"}, "", 2, nullptr},
                             TestExec{{"x", "y"}, "", 2, nullptr}});
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.stats.messages, 3u + 8u);
  EXPECT_EQ(report.stats.contexts_allocated, 4u);
}
