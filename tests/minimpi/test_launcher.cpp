// MPMD launcher semantics: contiguous non-overlapping rank assignment,
// per-executable environments, failure propagation, job abort behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"

using namespace minimpi;

namespace {
JobOptions fast_options() {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  return options;
}
}  // namespace

TEST(Launcher, RanksAssignedContiguouslyInCommandFileOrder) {
  std::mutex mutex;
  std::map<std::string, std::vector<rank_t>> ranks_by_exec;
  const JobReport report = run_mpmd(
      {
          ExecSpec{"atm", 3,
                   [&](const Comm& world, const ExecEnv& env) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ranks_by_exec[env.exec_name].push_back(world.rank());
                   },
                   {}},
          ExecSpec{"ocn", 2,
                   [&](const Comm& world, const ExecEnv& env) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ranks_by_exec[env.exec_name].push_back(world.rank());
                   },
                   {}},
          ExecSpec{"cpl", 1,
                   [&](const Comm& world, const ExecEnv& env) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ranks_by_exec[env.exec_name].push_back(world.rank());
                   },
                   {}},
      },
      fast_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;

  auto sorted = [&](const std::string& name) {
    auto v = ranks_by_exec[name];
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted("atm"), (std::vector<rank_t>{0, 1, 2}));
  EXPECT_EQ(sorted("ocn"), (std::vector<rank_t>{3, 4}));
  EXPECT_EQ(sorted("cpl"), (std::vector<rank_t>{5}));
}

TEST(Launcher, AllExecutablesShareOneWorld) {
  // Paper §6: "all executables share the same MPI_Comm_World".
  const JobReport report = run_mpmd(
      {
          ExecSpec{"a", 2,
                   [](const Comm& world, const ExecEnv&) {
                     EXPECT_EQ(world.size(), 5);
                     const int sum = allreduce_value(world, 1, op::Sum{});
                     EXPECT_EQ(sum, 5);
                   },
                   {}},
          ExecSpec{"b", 3,
                   [](const Comm& world, const ExecEnv&) {
                     EXPECT_EQ(world.size(), 5);
                     const int sum = allreduce_value(world, 1, op::Sum{});
                     EXPECT_EQ(sum, 5);
                   },
                   {}},
      },
      fast_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
}

TEST(Launcher, ExecEnvCarriesNameIndexAndArgs) {
  const JobReport report = run_mpmd(
      {
          ExecSpec{"first", 1,
                   [](const Comm&, const ExecEnv& env) {
                     EXPECT_EQ(env.exec_index, 0);
                     EXPECT_EQ(env.exec_name, "first");
                     EXPECT_TRUE(env.args.empty());
                   },
                   {}},
          ExecSpec{"second", 2,
                   [](const Comm& world, const ExecEnv& env) {
                     EXPECT_EQ(env.exec_index, 1);
                     EXPECT_EQ(env.exec_name, "second");
                     ASSERT_EQ(env.args.size(), 2u);
                     EXPECT_EQ(env.args[0], "-in");
                     EXPECT_EQ(env.args[1], "ocean.nml");
                     EXPECT_EQ(env.world_rank, world.rank());
                   },
                   {"-in", "ocean.nml"}},
      },
      fast_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
}

TEST(Launcher, CrossExecutableMessaging) {
  // The situation MPH exists to manage: executables can address each other
  // through world ranks even though neither knows the other's layout.
  const JobReport report = run_mpmd(
      {
          ExecSpec{"sender", 1,
                   [](const Comm& world, const ExecEnv&) {
                     world.send(3.25, /*dest=*/1, /*tag=*/0);
                   },
                   {}},
          ExecSpec{"receiver", 1,
                   [](const Comm& world, const ExecEnv&) {
                     double v = 0;
                     world.recv(v, 0, 0);
                     EXPECT_EQ(v, 3.25);
                   },
                   {}},
      },
      fast_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
}

TEST(Launcher, FailureInOneRankAbortsJob) {
  const JobReport report = run_mpmd(
      {
          ExecSpec{"bad", 1,
                   [](const Comm&, const ExecEnv&) {
                     throw std::runtime_error("synthetic component failure");
                   },
                   {}},
          ExecSpec{"blocked", 1,
                   [](const Comm& world, const ExecEnv&) {
                     int v = 0;
                     world.recv(v, 0, 0);  // never satisfied
                   },
                   {}},
      },
      fast_options());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.abort_reason.find("synthetic component failure"),
            std::string::npos);
  // Root cause is ordered before collateral AbortedError failures.
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().what, "synthetic component failure");
}

TEST(Launcher, RejectsEmptyAndInvalidSpecs) {
  EXPECT_THROW(run_mpmd({}), Error);
  const auto noop = [](const Comm&, const ExecEnv&) {};
  EXPECT_THROW(run_mpmd({ExecSpec{"x", 0, noop, {}}}), Error);
  EXPECT_THROW(run_mpmd({ExecSpec{"x", -2, noop, {}}}), Error);
  EXPECT_THROW(run_mpmd({ExecSpec{"x", 1, nullptr, {}}}), Error);
}

TEST(Launcher, ManySmallExecutables) {
  // One rank per executable, eight executables: the SCME shape.
  std::vector<ExecSpec> specs;
  std::atomic<int> visited{0};
  for (int i = 0; i < 8; ++i) {
    specs.push_back(ExecSpec{"exe" + std::to_string(i), 1,
                             [&visited](const Comm& world, const ExecEnv& env) {
                               EXPECT_EQ(world.rank(), env.exec_index);
                               visited.fetch_add(1);
                             },
                             {}});
  }
  const JobReport report = run_mpmd(specs, fast_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(visited.load(), 8);
}

TEST(Launcher, JobsAreIndependent) {
  // Two jobs run back to back: contexts and mailboxes must not leak across.
  for (int round = 0; round < 2; ++round) {
    const JobReport report = run_spmd(
        3,
        [round](const Comm& world, const ExecEnv&) {
          const int sum = allreduce_value(world, round * 10 + world.rank(),
                                          op::Sum{});
          EXPECT_EQ(sum, round * 30 + 3);
        },
        fast_options());
    ASSERT_TRUE(report.ok) << report.abort_reason;
  }
}
