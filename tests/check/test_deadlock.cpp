// mpicheck deadlock detector: a head-to-head receive cycle between two
// components must produce ONE structured report naming every
// (component, rank, operation) edge — via the watcher thread, or via the
// blocking-receive timeout upgrade when the watcher is off — while
// fault-injection kills and delays must never be mistaken for deadlock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"

namespace {

using minimpi::CheckOptions;
using minimpi::Comm;
using minimpi::ExecEnv;
using minimpi::ExecSpec;
using minimpi::JobOptions;
using minimpi::JobReport;

JobOptions deadlock_options() {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  options.check.deadlock = true;
  return options;
}

/// Two single-rank executables, "atm" (world rank 0) and "ocn" (world rank
/// 1), each receiving from the other before its send: the canonical
/// send-after-recv cycle.
std::vector<ExecSpec> cycle_specs() {
  return {
      ExecSpec{"atm", 1,
               [](const Comm& world, const ExecEnv&) {
                 int value = 0;
                 world.recv(value, 1, 7);  // never satisfied
                 world.send(value, 1, 8);
               },
               {}},
      ExecSpec{"ocn", 1,
               [](const Comm& world, const ExecEnv&) {
                 int value = 0;
                 world.recv(value, 0, 9);  // never satisfied
                 world.send(value, 0, 10);
               },
               {}},
  };
}

TEST(DeadlockCheck, WatcherReportsSingleCycleNamingEveryEdge) {
  const JobReport report = minimpi::run_mpmd(cycle_specs(), deadlock_options());

  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->operation, "deadlock");
  ASSERT_TRUE(report.check.has_value());
  // Exactly one report for the whole cycle — not one timeout per rank.
  ASSERT_EQ(report.check->deadlocks.size(), 1u);
  const std::string& cycle = report.check->deadlocks.front();
  EXPECT_NE(cycle.find("wait-for cycle across 2 rank(s)"), std::string::npos)
      << cycle;
  // Every edge appears with its component, rank, operation, and tag.
  EXPECT_NE(cycle.find("atm[0] recv<-ocn[1]"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("ocn[1] recv<-atm[0]"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("tag=7"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("tag=9"), std::string::npos) << cycle;
  // The abort carries the same cycle text to every unwound rank.
  EXPECT_NE(report.abort->detail.find("wait-for cycle"), std::string::npos);
}

TEST(DeadlockCheck, BlockedReceiveTimeoutUpgradesToDeadlockError) {
  JobOptions options = deadlock_options();
  options.check.watch_interval = std::chrono::milliseconds(0);  // no watcher
  options.recv_timeout = std::chrono::milliseconds(300);

  const JobReport report = minimpi::run_mpmd(cycle_specs(), options);

  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  // The timeout consulted the wait-for graph and upgraded itself: the
  // root cause is a deadlock report, not a generic receive timeout.
  EXPECT_EQ(report.abort->operation, "deadlock");
  EXPECT_NE(report.abort->detail.find("wait-for cycle"), std::string::npos)
      << report.abort->detail;
  ASSERT_TRUE(report.check.has_value());
  EXPECT_GE(report.check->deadlocks.size(), 1u);
  EXPECT_NE(report.first_error().find("deadlock"), std::string::npos)
      << report.first_error();
}

TEST(DeadlockCheck, InjectedKillIsNotReportedAsDeadlock) {
  JobOptions options = deadlock_options();
  options.check.watch_interval = std::chrono::milliseconds(2);  // aggressive
  options.faults.kill_at(minimpi::KillPoint::entry, 1);

  // Rank 0 blocks on a message rank 1 would have sent — but rank 1 dies at
  // entry.  The blocked rank unwinds via the abort, and the watcher must
  // not misread the one-sided wait as a cycle.
  const std::vector<ExecSpec> specs = {
      ExecSpec{"atm", 1,
               [](const Comm& world, const ExecEnv&) {
                 int value = 0;
                 world.recv(value, 1, 3);
               },
               {}},
      ExecSpec{"ocn", 1,
               [](const Comm& world, const ExecEnv&) {
                 const int value = 42;
                 world.send(value, 0, 3);
               },
               {}},
  };
  const JobReport report = minimpi::run_mpmd(specs, options);

  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->operation, "entry");
  ASSERT_TRUE(report.check.has_value());
  EXPECT_TRUE(report.check->deadlocks.empty())
      << report.check->deadlocks.front();
}

TEST(DeadlockCheck, DelayedDeliveryIsNotReportedAsDeadlock) {
  JobOptions options = deadlock_options();
  options.check.watch_interval = std::chrono::milliseconds(2);  // aggressive
  minimpi::EnvelopeMatch slow;
  slow.src = 0;
  slow.dest = 1;
  options.faults.delay(slow, std::chrono::milliseconds(200));

  // A completes-eventually exchange: while rank 0's send is parked in the
  // delay, rank 1 sits blocked on rank 0 — a one-edge wait the watcher
  // scans many times and must never report.
  const std::vector<ExecSpec> specs = {
      ExecSpec{"atm", 1,
               [](const Comm& world, const ExecEnv&) {
                 const int value = 1;
                 world.send(value, 1, 5);
                 int reply = 0;
                 world.recv(reply, 1, 6);
               },
               {}},
      ExecSpec{"ocn", 1,
               [](const Comm& world, const ExecEnv&) {
                 int value = 0;
                 world.recv(value, 0, 5);
                 world.send(value, 0, 6);
               },
               {}},
  };
  const JobReport report = minimpi::run_mpmd(specs, options);

  EXPECT_TRUE(report.ok) << report.first_error();
  ASSERT_TRUE(report.check.has_value());
  EXPECT_TRUE(report.check->deadlocks.empty())
      << report.check->deadlocks.front();
}

TEST(CheckOptions, EnvironmentTokensApplyOnTopOfTheProgram) {
  minimpi::CheckOptions programmatic;
  programmatic.deadlock = true;
  programmatic.watch_interval = std::chrono::milliseconds(5);
  ::setenv("MINIMPI_CHECK", "types,bogus", 1);
  const minimpi::CheckOptions merged = programmatic.merged_with_env();
  ::setenv("MINIMPI_CHECK", "all", 1);
  const minimpi::CheckOptions all = programmatic.merged_with_env();
  ::unsetenv("MINIMPI_CHECK");
  // Flag tokens only switch checkers on; nothing the environment does not
  // name changes.
  EXPECT_TRUE(merged.deadlock);
  EXPECT_TRUE(merged.type_matching);
  EXPECT_FALSE(merged.collectives);
  EXPECT_FALSE(merged.leaks);
  EXPECT_EQ(merged.watch_interval, std::chrono::milliseconds(5));
  EXPECT_TRUE(all.deadlock && all.type_matching && all.collectives &&
              all.leaks);
  EXPECT_EQ(all.watch_interval, std::chrono::milliseconds(5));
}

TEST(DeadlockCheck, EnvironmentVariableEnablesChecker) {
  ::setenv("MINIMPI_CHECK", "deadlock", 1);
  JobOptions options;  // nothing enabled programmatically
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = minimpi::run_mpmd(cycle_specs(), options);
  ::unsetenv("MINIMPI_CHECK");

  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->operation, "deadlock");
  ASSERT_TRUE(report.check.has_value());
  EXPECT_EQ(report.check->deadlocks.size(), 1u);
}

TEST(DeadlockCheck, CleanExchangeStaysSilentUnderWatcher) {
  JobOptions options = deadlock_options();
  options.check.watch_interval = std::chrono::milliseconds(1);

  const JobReport report = minimpi::run_spmd(
      4,
      [](const Comm& world, const ExecEnv&) {
        const int n = world.size();
        const minimpi::rank_t next = (world.rank() + 1) % n;
        const minimpi::rank_t prev = (world.rank() + n - 1) % n;
        for (int round = 0; round < 50; ++round) {
          const int value = world.rank();
          world.send(value, next, 2);
          int got = 0;
          world.recv(got, prev, 2);
          minimpi::barrier(world);
        }
      },
      options);

  EXPECT_TRUE(report.ok) << report.first_error();
  ASSERT_TRUE(report.check.has_value());
  EXPECT_TRUE(report.check->clean()) << report.check->to_string();
}

}  // namespace
