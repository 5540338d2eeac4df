// The two seeded schedule bugs of the verification suite: a wildcard race
// whose bad matching ordinary timing hides, and an order-dependent
// deadlock.  Both must be caught within a stated budget, produce a minimal
// replayable decision trace, and be reproduced exactly by replaying it.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "src/minimpi/launcher.hpp"
#include "src/minimpi/verify/verify.hpp"

namespace {

using minimpi::Comm;
using minimpi::ExecEnv;
using minimpi::JobOptions;
using minimpi::JobReport;
using minimpi::verify::ReplayResult;
using minimpi::verify::VerifyOptions;
using minimpi::verify::VerifyReport;

constexpr minimpi::tag_t kDataTag = 7;
constexpr minimpi::tag_t kAckTag = 8;

VerifyOptions budgeted_options() {
  VerifyOptions options;
  options.job.recv_timeout = std::chrono::seconds(20);
  // The stated budget: both fixtures must be caught within 16 schedules.
  options.max_schedules = 16;
  return options;
}

/// In ordinary runs rank 2's delayed send always arrives second, hiding
/// the schedule where it matches first.
void bug_hiding_delay() {
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

/// Rank 0 assumes its first ANY_SOURCE receive is rank 1's message.
void wildcard_race_entry(const Comm& world, const ExecEnv&) {
  switch (world.rank()) {
    case 1:
      world.send(111, 0, kDataTag);
      break;
    case 2:
      bug_hiding_delay();
      world.send(222, 0, kDataTag);
      break;
    default: {
      int first = 0;
      int second = 0;
      world.recv(first, minimpi::any_source, kDataTag);
      if (first != 111) {
        throw std::runtime_error("wildcard race: expected 111, got " +
                                 std::to_string(first));
      }
      world.recv(second, minimpi::any_source, kDataTag);
    }
  }
}

/// Rank 0 demands a second message from whichever sender matched first;
/// only rank 1 has one, and rank 2 blocks on an ack rank 0 sends too late.
void order_deadlock_entry(const Comm& world, const ExecEnv&) {
  int value = 0;
  switch (world.rank()) {
    case 1:
      world.send(1, 0, kDataTag);
      world.send(2, 0, kDataTag);
      break;
    case 2:
      bug_hiding_delay();
      world.send(3, 0, kDataTag);
      world.recv(value, 0, kAckTag);
      break;
    default: {
      const minimpi::Status first =
          world.recv(value, minimpi::any_source, kDataTag);
      world.recv(value, first.source, kDataTag);  // bug on first==2
      world.send(0, 2, kAckTag);
      world.recv(value, minimpi::any_source, kDataTag);
    }
  }
}

minimpi::verify::JobRunner spmd_runner(
    void (*entry)(const Comm&, const ExecEnv&)) {
  return [entry](const JobOptions& options) {
    return minimpi::run_spmd(3, entry, options);
  };
}

TEST(VerifyFixtures, WildcardRacePassesOrdinaryRuns) {
  // The bug is timing-hidden: a plain (unscheduled) run succeeds.
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(20);
  const JobReport report =
      minimpi::run_spmd(3, wildcard_race_entry, options);
  EXPECT_TRUE(report.ok) << report.first_error();
}

TEST(VerifyFixtures, WildcardRaceCaughtWithinBudgetAndTraceReplays) {
  const minimpi::verify::JobRunner runner = spmd_runner(wildcard_race_entry);
  const VerifyReport report =
      minimpi::verify::verify(runner, budgeted_options());

  ASSERT_EQ(report.failures.size(), 1u) << report.to_string();
  EXPECT_LE(report.schedules_run, 16u);
  EXPECT_NE(report.failures.front().reason.find("expected 111"),
            std::string::npos);
  // The race detector flagged the decision point too.
  ASSERT_FALSE(report.races.empty());
  EXPECT_TRUE(report.races.front().concurrent);

  // The failing trace is minimal — a single wildcard decision — and
  // replaying it reproduces the identical failure.
  const minimpi::verify::Trace& trace = report.failures.front().trace;
  ASSERT_EQ(trace.decisions.size(), 1u);
  EXPECT_EQ(trace.decisions.front().chose, 2);

  JobOptions job;
  job.recv_timeout = std::chrono::seconds(20);
  const ReplayResult replayed = minimpi::verify::replay(runner, trace, job);
  EXPECT_TRUE(replayed.divergence.empty()) << replayed.divergence;
  EXPECT_FALSE(replayed.report.ok);
  EXPECT_NE(replayed.report.first_error().find("expected 111"),
            std::string::npos)
      << replayed.report.first_error();
  EXPECT_EQ(replayed.observed, trace);
}

TEST(VerifyFixtures, OrderDeadlockPassesOrdinaryRuns) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(20);
  const JobReport report =
      minimpi::run_spmd(3, order_deadlock_entry, options);
  EXPECT_TRUE(report.ok) << report.first_error();
}

TEST(VerifyFixtures, OrderDeadlockCaughtAsCycleWithinBudget) {
  const VerifyReport report = minimpi::verify::verify(
      spmd_runner(order_deadlock_entry), budgeted_options());

  ASSERT_EQ(report.failures.size(), 1u) << report.to_string();
  EXPECT_LE(report.schedules_run, 16u);
  // mpicheck names the cycle, not a timeout: the deadlock is structural.
  EXPECT_NE(report.failures.front().reason.find("wait-for cycle"),
            std::string::npos)
      << report.failures.front().reason;
  ASSERT_EQ(report.failures.front().trace.decisions.size(), 1u);
  EXPECT_EQ(report.failures.front().trace.decisions.front().chose, 2);
}

TEST(VerifyFixtures, SameSeedProducesIdenticalFailingTraceTwice) {
  // Exploration determinism: two runs with the same seed dump
  // byte-identical traces.
  VerifyOptions options = budgeted_options();
  options.seed = 77;
  const VerifyReport first =
      minimpi::verify::verify(spmd_runner(wildcard_race_entry), options);
  const VerifyReport second =
      minimpi::verify::verify(spmd_runner(wildcard_race_entry), options);
  ASSERT_EQ(first.failures.size(), 1u);
  ASSERT_EQ(second.failures.size(), 1u);
  EXPECT_EQ(first.failures.front().trace, second.failures.front().trace);
  EXPECT_EQ(first.failures.front().trace.to_json(),
            second.failures.front().trace.to_json());
  EXPECT_EQ(first.schedules_run, second.schedules_run);
}

}  // namespace
