// The layout module: dry-run planning (plan_layout) and its equivalence
// with the live handshake — the invariant that makes `mph plan`
// trustworthy.
#include "src/mph/layout.hpp"

#include <gtest/gtest.h>

#include <mutex>

#include "src/mph/handshake.hpp"
#include "src/util/rng.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;

TEST(FindRuns, CollapsesConsecutiveSignatures) {
  const std::vector<std::string> sigs{"C:a", "C:a", "C:b", "C:a", "C:a",
                                      "C:a"};
  const std::vector<ExecutableRun> runs = find_runs(sigs);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].signature, "C:a");
  EXPECT_EQ(runs[0].base, 0);
  EXPECT_EQ(runs[0].size, 2);
  EXPECT_EQ(runs[1].base, 2);
  EXPECT_EQ(runs[1].size, 1);
  EXPECT_EQ(runs[2].base, 3);
  EXPECT_EQ(runs[2].size, 3);
}

TEST(FindRuns, Empty) { EXPECT_TRUE(find_runs({}).empty()); }

TEST(PlanLayout, PaperMcmeExample) {
  const Registry reg = Registry::parse(R"(BEGIN
Multi_Component_Begin
atmosphere 0 15
land       0 15
chemistry 16 19
Multi_Component_End
Multi_Component_Begin
ocean 0 15
ice 16 31
Multi_Component_End
coupler
END
)");
  const Directory dir = plan_layout(
      reg, {
               PlannedExecutable{
                   {"atmosphere", "land", "chemistry"}, false, 20},
               PlannedExecutable{{"ocean", "ice"}, false, 32},
               PlannedExecutable{{"coupler"}, false, 4},
           });
  EXPECT_EQ(dir.total_components(), 6);
  EXPECT_EQ(dir.num_executables(), 3);
  EXPECT_EQ(dir.component("atmosphere").global_high, 15);
  EXPECT_EQ(dir.component("chemistry").global_low, 16);
  EXPECT_EQ(dir.component("ocean").global_low, 20);
  EXPECT_EQ(dir.component("ice").global_high, 51);
  EXPECT_EQ(dir.component("coupler").global_low, 52);
  EXPECT_EQ(dir.component("coupler").size(), 4);
}

TEST(PlanLayout, InstancePlan) {
  const Registry reg = Registry::parse(
      "BEGIN\nMulti_Instance_Begin\nO1 0 3\nO2 4 7\nMulti_Instance_End\n"
      "stats\nEND\n");
  const Directory dir =
      plan_layout(reg, {PlannedExecutable{{"O"}, true, 8},
                        PlannedExecutable{{"stats"}, false, 1}});
  EXPECT_EQ(dir.component("O2").global_low, 4);
  EXPECT_EQ(dir.component("stats").global_low, 8);
}

TEST(PlanLayout, DetectsMisconfigurationWithoutLaunching) {
  const Registry reg = Registry::parse("BEGIN\natm\nocn\nEND\n");
  // Wrong name.
  EXPECT_THROW((void)plan_layout(reg, {PlannedExecutable{{"atm"}, false, 2},
                                       PlannedExecutable{{"ice"}, false, 2}}),
               SetupError);
  // Missing executable.
  EXPECT_THROW((void)plan_layout(reg, {PlannedExecutable{{"atm"}, false, 2}}),
               SetupError);
  // Bad nprocs.
  EXPECT_THROW((void)plan_layout(reg, {PlannedExecutable{{"atm"}, false, 0}}),
               SetupError);
  // Empty job.
  EXPECT_THROW((void)plan_layout(reg, {}), SetupError);
}

TEST(PlanLayout, SizeAssertionChecked) {
  const Registry reg = Registry::parse(
      "BEGIN\nMulti_Component_Begin\na 0 3\nb 4 5\nMulti_Component_End\nEND\n");
  EXPECT_NO_THROW(
      (void)plan_layout(reg, {PlannedExecutable{{"a", "b"}, false, 6}}));
  EXPECT_THROW(
      (void)plan_layout(reg, {PlannedExecutable{{"a", "b"}, false, 5}}),
      SetupError);
}

/// The tool-enabling invariant: the dry-run plan equals the directory the
/// live handshake builds, over randomized layouts.
class PlanEquivalence : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalence, ::testing::Range(0, 8));

TEST_P(PlanEquivalence, PlanMatchesLiveHandshake) {
  mph::util::Rng rng(2200 + static_cast<unsigned>(GetParam()));
  // Random SCME + one optional multi-component executable.
  std::string registry = "BEGIN\n";
  std::vector<PlannedExecutable> plan;
  std::vector<TestExec> live;
  const int singles = static_cast<int>(rng.range(1, 4));
  for (int i = 0; i < singles; ++i) {
    const std::string name = "s" + std::to_string(i);
    const int nprocs = static_cast<int>(rng.range(1, 3));
    registry += name + "\n";
    plan.push_back(PlannedExecutable{{name}, false, nprocs});
    live.push_back(TestExec{{name}, "", nprocs, nullptr});
  }
  if (rng.uniform() < 0.7) {
    const int nprocs = static_cast<int>(rng.range(2, 4));
    registry += "Multi_Component_Begin\nma 0 " + std::to_string(nprocs - 1) +
                "\nmb 0 " + std::to_string(nprocs - 1) +
                "\nMulti_Component_End\n";
    plan.push_back(PlannedExecutable{{"ma", "mb"}, false, nprocs});
    live.push_back(TestExec{{"ma", "mb"}, "", nprocs, nullptr});
  }
  registry += "END\n";
  SCOPED_TRACE(registry);

  const Directory planned =
      plan_layout(Registry::parse(registry), plan);

  std::mutex mutex;
  std::string live_digest;
  auto capture = [&](Mph& h, const minimpi::Comm&) {
    if (h.global_proc_id() == 0) {
      const std::lock_guard<std::mutex> lock(mutex);
      live_digest = h.directory().describe();
    }
  };
  live.front().body = capture;
  run_mph_ok(registry, std::move(live));

  EXPECT_EQ(planned.describe(), live_digest);
}
