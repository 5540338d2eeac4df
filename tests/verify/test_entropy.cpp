// Seeded-nondeterminism discipline: every source of randomness flows
// through the job seed, the fresh-entropy ban turns violations into hard
// errors during verification, and seeded fault-injection jitter replays
// identically.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/util/rng.hpp"

namespace {

using minimpi::Comm;
using minimpi::EnvelopeMatch;
using minimpi::ExecEnv;
using minimpi::FaultInjector;
using minimpi::FaultPlan;
using minimpi::JobOptions;
using minimpi::JobReport;
using mph::util::ScopedEntropyBan;

TEST(EntropyGuard, FreshEntropyThrowsWhileBanned) {
  {
    const ScopedEntropyBan ban;
    EXPECT_TRUE(mph::util::fresh_entropy_forbidden());
    EXPECT_THROW((void)mph::util::fresh_entropy_seed(), std::runtime_error);
  }
  EXPECT_FALSE(mph::util::fresh_entropy_forbidden());
  EXPECT_NO_THROW((void)mph::util::fresh_entropy_seed());
}

TEST(EntropyGuard, BanNests) {
  const ScopedEntropyBan outer;
  {
    const ScopedEntropyBan inner;
  }
  // The inner scope must not lift the outer ban.
  EXPECT_TRUE(mph::util::fresh_entropy_forbidden());
}

TEST(EntropyGuard, UnseededJobUnderBanThrows) {
  // A job with seed 0 draws a fresh seed — exactly the unseeded entropy
  // verification forbids.  The error names the remedy.
  const ScopedEntropyBan ban;
  JobOptions options;  // seed = 0
  try {
    (void)minimpi::run_spmd(
        2, [](const Comm&, const ExecEnv&) {}, options);
    FAIL() << "expected the entropy ban to fire";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("job seed"), std::string::npos)
        << e.what();
  }
}

TEST(EntropyGuard, SeededJobUnderBanRuns) {
  const ScopedEntropyBan ban;
  JobOptions options;
  options.seed = 42;
  const JobReport report = minimpi::run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        int value = world.rank();
        if (world.rank() == 0) {
          world.recv(value, 1, 3);
        } else {
          world.send(value, 0, 3);
        }
      },
      options);
  EXPECT_TRUE(report.ok) << report.first_error();
}

std::vector<std::string> jitter_descriptions(std::uint64_t seed) {
  FaultPlan plan;
  for (std::uint64_t hit = 1; hit <= 3; ++hit) {
    plan.delay(EnvelopeMatch{}, std::chrono::milliseconds(1), hit,
               std::chrono::milliseconds(2000));
  }
  FaultInjector injector(std::move(plan), seed);
  injector.set_virtual_time(true);  // record the drawn delays, never sleep
  std::vector<std::string> out;
  for (int i = 0; i < 3; ++i) {
    minimpi::Envelope env;
    env.src = 0;
    (void)injector.admit(env, 1);
  }
  for (const minimpi::FaultEvent& event : injector.events()) {
    out.push_back(event.description);
  }
  return out;
}

TEST(EntropyGuard, FaultJitterIsSeedDeterministic) {
  const std::vector<std::string> first = jitter_descriptions(99);
  const std::vector<std::string> again = jitter_descriptions(99);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, again);
}

TEST(EntropyGuard, VirtualTimeSkipsRealSleeps) {
  FaultPlan plan;
  plan.delay(EnvelopeMatch{}, std::chrono::milliseconds(2000));
  FaultInjector injector(std::move(plan), 7);
  injector.set_virtual_time(true);
  minimpi::Envelope env;
  env.src = 0;
  const auto start = std::chrono::steady_clock::now();
  (void)injector.admit(env, 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  ASSERT_EQ(injector.events().size(), 1u);  // the rule still fired
}

}  // namespace
