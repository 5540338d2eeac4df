// Deterministic fault injection at the minimpi layer: every kill-point
// fires at its configured (rank, operation) with clean job teardown, the
// envelope faults (drop/delay/truncate) behave as specified, and the
// seed-derived chaos plans reproduce the same failure on every run.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "tests/mph/mph_test_util.hpp"

namespace {

using minimpi::Comm;
using minimpi::EnvelopeMatch;
using minimpi::FaultPlan;
using minimpi::JobOptions;
using minimpi::JobReport;
using minimpi::KillPoint;
using minimpi::kill_point_name;

JobOptions with_plan(
    FaultPlan plan,
    std::chrono::milliseconds timeout = std::chrono::seconds(30)) {
  JobOptions options;
  options.recv_timeout = timeout;
  options.faults = std::move(plan);
  return options;
}

/// Workload touching every kill-point: step checkpoints, barriers (4 per
/// rank — chaos hit counts go up to 4), a ring of sends/receives, a split.
void full_workload(const Comm& world, const minimpi::ExecEnv&) {
  const int n = world.size();
  const int r = world.rank();
  world.fault_checkpoint(0);
  minimpi::barrier(world);
  for (int round = 0; round < 5; ++round) {
    const int token = r * 100 + round;
    world.send(token, (r + 1) % n, 7);
    int in = -1;
    world.recv(in, (r + n - 1) % n, 7);
    ASSERT_EQ(in, ((r + n - 1) % n) * 100 + round);
  }
  minimpi::barrier(world);
  const Comm half = world.split(r % 2, r);
  minimpi::barrier(half);
  world.fault_checkpoint(1);
  minimpi::barrier(world);
}

JobReport run_workload(JobOptions options) {
  return minimpi::run_spmd(4, full_workload, std::move(options));
}

// --- kill-points, parametrized over every point ----------------------------

class KillPointTest : public ::testing::TestWithParam<KillPoint> {};

TEST_P(KillPointTest, KillsConfiguredRankAtConfiguredOperation) {
  const KillPoint point = GetParam();
  constexpr minimpi::rank_t kVictim = 2;
  FaultPlan plan;
  if (point == KillPoint::step) {
    plan.kill_at_step(kVictim, 1);
  } else {
    plan.kill_at(point, kVictim);
  }

  const JobReport report = run_workload(with_plan(std::move(plan)));

  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->world_rank, kVictim);
  EXPECT_EQ(report.abort->operation, kill_point_name(point));
  ASSERT_FALSE(report.failures.empty());
  // Root cause is ordered first and attributed to the victim.
  EXPECT_EQ(report.failures.front().world_rank, kVictim);
  EXPECT_EQ(report.failures.front().operation, kill_point_name(point));
  EXPECT_NE(report.abort_reason.find("injected kill"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, KillPointTest,
    ::testing::Values(KillPoint::before_send, KillPoint::after_send,
                      KillPoint::before_recv, KillPoint::after_recv,
                      KillPoint::before_barrier, KillPoint::after_barrier,
                      KillPoint::before_split, KillPoint::after_split,
                      KillPoint::step, KillPoint::entry, KillPoint::finish),
    [](const ::testing::TestParamInfo<KillPoint>& info) {
      return std::string(kill_point_name(info.param));
    });

TEST(KillPointHitCount, HitCountSelectsTheNthVisit) {
  // Rank 1 dies on its third send (the barrier's internal sends count),
  // not its first — the job visibly progresses before the abort.
  FaultPlan plan;
  plan.kill_at(KillPoint::before_send, 1, 3);
  const JobReport report = run_workload(with_plan(std::move(plan)));
  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->world_rank, 1);
  EXPECT_EQ(report.abort->operation, "before_send");
}

// --- chaos plans: same seed, same failure ----------------------------------

TEST(ChaosKill, SameSeedReproducesTheSameFailure) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 20260806ULL}) {
    const FaultPlan plan = FaultPlan::chaos_kill(seed, 4);
    ASSERT_EQ(plan.rules().size(), 1u);

    const JobReport first = run_workload(with_plan(plan));
    const JobReport second = run_workload(with_plan(plan));

    ASSERT_TRUE(first.abort.has_value()) << "seed " << seed;
    ASSERT_TRUE(second.abort.has_value()) << "seed " << seed;
    EXPECT_EQ(first.abort->world_rank, second.abort->world_rank)
        << "seed " << seed;
    EXPECT_EQ(first.abort->operation, second.abort->operation)
        << "seed " << seed;
    // The failing rank is exactly the plan's pinned victim.
    EXPECT_EQ(first.abort->world_rank, plan.rules().front().victim);
    EXPECT_EQ(first.abort->operation,
              kill_point_name(plan.rules().front().point));
  }
}

TEST(ChaosKill, DifferentSeedsCoverDifferentVictims) {
  // Not a distribution test — just that the seed actually matters.
  bool saw_difference = false;
  const FaultPlan base = FaultPlan::chaos_kill(0, 4);
  for (std::uint64_t seed = 1; seed < 16 && !saw_difference; ++seed) {
    const FaultPlan other = FaultPlan::chaos_kill(seed, 4);
    saw_difference = other.rules().front().victim !=
                         base.rules().front().victim ||
                     other.rules().front().point != base.rules().front().point;
  }
  EXPECT_TRUE(saw_difference);
}

// --- envelope faults --------------------------------------------------------

TEST(EnvelopeFaults, DroppedMessageTimesOutWithPatternDiagnostics) {
  FaultPlan plan;
  EnvelopeMatch match;
  match.tag = 5;
  plan.drop(match);
  const JobReport report = minimpi::run_spmd(
      2,
      [](const Comm& world, const minimpi::ExecEnv&) {
        if (world.rank() == 0) {
          world.send(1, 1, 9);  // decoy: queued but never received
          world.send(2, 1, 5);  // dropped in flight
        } else {
          int value = -1;
          world.recv(value, 0, 5);  // never arrives
        }
      },
      with_plan(std::move(plan), std::chrono::milliseconds(300)));

  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  const std::string& what = report.failures.front().what;
  // The timeout error names the unmatched receive pattern and counts the
  // queued-but-unmatched envelopes (the tag-9 decoy).
  EXPECT_NE(what.find("timeout"), std::string::npos) << what;
  EXPECT_NE(what.find("tag=5"), std::string::npos) << what;
  EXPECT_NE(what.find("1 unmatched envelope(s) queued"), std::string::npos)
      << what;
}

TEST(EnvelopeFaults, DelayedMessageStillArrives) {
  FaultPlan plan;
  EnvelopeMatch match;
  match.tag = 5;
  plan.delay(match, std::chrono::milliseconds(80));
  const auto start = std::chrono::steady_clock::now();
  const JobReport report = minimpi::run_spmd(
      2,
      [](const Comm& world, const minimpi::ExecEnv&) {
        if (world.rank() == 0) {
          world.send(17, 1, 5);
        } else {
          int value = -1;
          world.recv(value, 0, 5);
          EXPECT_EQ(value, 17);
        }
      },
      with_plan(std::move(plan)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(report.ok) << report.abort_reason;
  EXPECT_GE(elapsed, std::chrono::milliseconds(80));
}

TEST(EnvelopeFaults, TruncatedPayloadSurfacesAsReceiveError) {
  FaultPlan plan;
  EnvelopeMatch match;
  match.tag = 5;
  plan.truncate(match, 10);  // not a whole number of doubles
  const JobReport report = minimpi::run_spmd(
      2,
      [](const Comm& world, const minimpi::ExecEnv&) {
        if (world.rank() == 0) {
          const std::vector<double> data(4, 3.25);
          world.send(std::span<const double>(data), 1, 5);
        } else {
          (void)world.recv_vector<double>(0, 5);
        }
      },
      with_plan(std::move(plan)));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures.front().what.find("truncation"),
            std::string::npos)
      << report.failures.front().what;
}

TEST(EnvelopeFaults, TruncatedHandshakeMessageFailsTheJobCleanly) {
  // SCME setup on the world communicator: the registry broadcast draws
  // collective tag 0, the signature allgather tag 1.  Cut one message of
  // each inside its self-sized record; the receiver must fail the job with
  // a truncation error naming the collective and the sending rank.
  struct Cut {
    minimpi::tag_t tag;
    minimpi::rank_t src, dest;
    std::size_t keep;
    const char* op;
  };
  for (const Cut& cut : {Cut{minimpi::kCollectiveTagBase, 0, 1, 20, "bcast"},
                         Cut{minimpi::kCollectiveTagBase + 1, 1, 0, 5,
                             "allgatherv"}}) {
    SCOPED_TRACE(cut.op);
    FaultPlan plan;
    EnvelopeMatch match;
    match.context = minimpi::kWorldContext;
    match.src = cut.src;
    match.dest = cut.dest;
    match.tag = cut.tag;
    plan.truncate(match, cut.keep);
    const JobReport report = mph::testing::run_mph_job(
        "BEGIN\natmosphere\nocean\nEND\n",
        {mph::testing::TestExec{{"atmosphere"}, "", 2, nullptr},
         mph::testing::TestExec{{"ocean"}, "", 2, nullptr}},
        {}, with_plan(std::move(plan)));
    EXPECT_FALSE(report.ok);
    ASSERT_FALSE(report.failures.empty());
    const minimpi::RankFailure& cause = report.failures.front();
    EXPECT_EQ(cause.world_rank, cut.dest);
    EXPECT_NE(cause.what.find("truncation"), std::string::npos) << cause.what;
    EXPECT_NE(cause.what.find(std::string(cut.op) + ": message of " +
                              std::to_string(cut.keep) + " bytes from rank " +
                              std::to_string(cut.src)),
              std::string::npos)
        << cause.what;
  }
}

TEST(EnvelopeFaults, TruncatedAllgatherMessageNamesTheCollective) {
  // Equal blocks: every Bruck message has a known size, checked exactly.
  FaultPlan plan;
  EnvelopeMatch match;
  match.src = 1;
  match.dest = 0;
  match.tag = minimpi::kCollectiveTagBase;
  plan.truncate(match, 10);
  const JobReport report = minimpi::run_spmd(
      4,
      [](const Comm& world, const minimpi::ExecEnv&) {
        const std::vector<double> mine(2, world.rank());
        (void)minimpi::allgather(world, std::span<const double>(mine));
      },
      with_plan(std::move(plan)));
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().world_rank, 0);
  EXPECT_NE(report.first_error().find("truncation"), std::string::npos);
  EXPECT_NE(report.first_error().find("allgather: message from rank 1 has "
                                      "10 bytes, expected 16 bytes"),
            std::string::npos)
      << report.first_error();
}

// --- teardown accounting and stats -----------------------------------------

TEST(Teardown, CleanJobLeaksNothing) {
  const JobReport report = run_workload(with_plan(FaultPlan{}));
  EXPECT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.leaked_envelopes, 0u);
  EXPECT_EQ(report.leaked_posted_recvs, 0u);
}

TEST(Teardown, UnreceivedEnvelopesAreCountedAfterTheJob) {
  const JobReport report = minimpi::run_spmd(
      2, [](const Comm& world, const minimpi::ExecEnv&) {
        if (world.rank() == 0) {
          world.send(1, 1, 11);
          world.send(2, 1, 12);
        }
      });
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.leaked_envelopes, 2u);
}

TEST(Stats, QueueHighWaterSeesTheBacklog) {
  const JobReport report = minimpi::run_spmd(
      2, [](const Comm& world, const minimpi::ExecEnv&) {
        if (world.rank() == 0) {
          for (int i = 0; i < 5; ++i) world.send(i, 1, 20);
          world.send(1, 1, 21);  // "go" arrives after the backlog
        } else {
          int go = -1;
          world.recv(go, 0, 21);  // by now 5 tag-20 envelopes are queued
          for (int i = 0; i < 5; ++i) {
            int v = -1;
            world.recv(v, 0, 20);
            EXPECT_EQ(v, i);
          }
        }
      });
  EXPECT_TRUE(report.ok) << report.abort_reason;
  EXPECT_GE(report.stats.queue_high_water, 5u);
}

// --- injector unit behaviour ------------------------------------------------

TEST(FaultInjector, RulesFireOnceAndRecordEvents) {
  FaultPlan plan;
  plan.kill_at(KillPoint::before_send, 0, 2);
  minimpi::FaultInjector injector(std::move(plan));

  injector.on_point(KillPoint::before_send, 0);  // visit 1 of 2: no fire
  EXPECT_THROW(injector.on_point(KillPoint::before_send, 0),
               minimpi::FaultInjectedError);
  // One-shot: the rule never fires again.
  injector.on_point(KillPoint::before_send, 0);
  injector.on_point(KillPoint::before_send, 0);

  const std::vector<minimpi::FaultEvent> events = injector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().world_rank, 0);
  EXPECT_NE(events.front().description.find("before_send"), std::string::npos);
}

TEST(FaultInjector, OtherRanksAndPointsDoNotMatch) {
  FaultPlan plan;
  plan.kill_at(KillPoint::after_recv, 3);
  minimpi::FaultInjector injector(std::move(plan));
  injector.on_point(KillPoint::after_recv, 2);    // wrong rank
  injector.on_point(KillPoint::before_recv, 3);   // wrong point
  EXPECT_TRUE(injector.events().empty());
  EXPECT_THROW(injector.on_point(KillPoint::after_recv, 3),
               minimpi::FaultInjectedError);
}

}  // namespace
