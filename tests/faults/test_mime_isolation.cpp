// MIME ensemble member isolation: with HandshakeOptions::isolate_instances,
// an injected failure inside one ensemble member aborts ONLY that member's
// failure domain.  The sibling members and the statistics component run to
// completion, the statistics aggregate the survivors and name the dead
// member, and the liveness API (ping / failure_of / require_alive) reports
// the structured failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "tests/mph/mph_test_util.hpp"

namespace {

using minimpi::Comm;
using minimpi::JobReport;
using mph::Mph;
using mph::testing::TestExec;

const std::string kRegistry = R"(BEGIN
Multi_Instance_Begin
Ocean1 0 1 diff=0.5
Ocean2 2 3 diff=0.8
Ocean3 4 5 diff=1.3
Ocean4 6 7 diff=2.0
Multi_Instance_End
statistics
END
)";

constexpr int kIntervals = 5;
constexpr int kKillInterval = 2;
constexpr minimpi::rank_t kVictimRank = 4;  ///< Ocean3's first world rank

mph::climate::ClimateConfig small_config() {
  mph::climate::ClimateConfig cfg;
  cfg.ocn_nlon = 18;
  cfg.ocn_nlat = 9;
  cfg.steps_per_interval = 2;
  cfg.intervals = kIntervals;
  return cfg;
}

/// Results observed by the surviving ranks, keyed by component name.
struct Observed {
  std::mutex mutex;
  std::map<std::string, std::size_t> member_intervals;  ///< my_means.size()
  mph::climate::EnsembleResult stats;
  bool stats_finalize_clean = false;
  bool ocean3_ping = true;
  std::string require_alive_error;
  int failed_world_rank = -2;
  std::string failed_operation;
};

JobReport run_isolated_ensemble(Observed& observed) {
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;

  minimpi::JobOptions job = mph::testing::test_job_options();
  job.faults.kill_at_step(kVictimRank, kKillInterval);

  TestExec members{
      {}, "Ocean", 8, [&observed](Mph& h, const Comm&) {
        const mph::climate::EnsembleResult result =
            mph::climate::run_ensemble_instance(h, small_config(),
                                                "statistics");
        const std::lock_guard<std::mutex> lock(observed.mutex);
        auto& slot = observed.member_intervals[h.comp_name()];
        slot = std::max(slot, result.my_means.size());
      }};
  TestExec statistics{
      {"statistics"}, "", 1, [&observed](Mph& h, const Comm&) {
        mph::climate::EnsembleResult result =
            mph::climate::run_ensemble_statistics(h, small_config(), "Ocean",
                                                  0.5);
        const bool ping = h.ping("Ocean3");
        std::string require_error;
        try {
          h.require_alive("Ocean3");
        } catch (const mph::ComponentFailedError& ex) {
          require_error = ex.what();
          const std::lock_guard<std::mutex> lock(observed.mutex);
          observed.failed_world_rank = ex.world_rank();
          observed.failed_operation = ex.operation();
        }
        const Mph::FinalizeReport fin = h.finalize();
        const std::lock_guard<std::mutex> lock(observed.mutex);
        observed.stats = std::move(result);
        observed.stats_finalize_clean = fin.clean();
        observed.ocean3_ping = ping;
        observed.require_alive_error = require_error;
      }};

  return mph::testing::run_mph_job(kRegistry, {members, statistics},
                                   handshake, std::move(job));
}

TEST(MimeIsolation, KilledMemberIsContainedAndSurvivorsComplete) {
  Observed observed;
  const JobReport report = run_isolated_ensemble(observed);

  // The job as a whole succeeded: no job-wide abort, failures contained.
  EXPECT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
  EXPECT_TRUE(report.failures.empty());
  EXPECT_FALSE(report.abort.has_value());

  // Exactly Ocean3's two ranks died: the injected kill plus its partner's
  // collateral unwind, both attributed to the member.
  ASSERT_EQ(report.contained.size(), 2u);
  for (const minimpi::RankFailure& f : report.contained) {
    EXPECT_TRUE(f.world_rank == 4 || f.world_rank == 5) << f.world_rank;
    EXPECT_EQ(f.component, "Ocean3");
  }
  EXPECT_EQ(report.contained.front().world_rank, kVictimRank);
  EXPECT_EQ(report.contained.front().operation, "step");

  // The three surviving members ran every interval.
  for (const std::string name : {"Ocean1", "Ocean2", "Ocean4"}) {
    ASSERT_TRUE(observed.member_intervals.contains(name)) << name;
    EXPECT_EQ(observed.member_intervals.at(name),
              static_cast<std::size_t>(kIntervals))
        << name;
  }
  // Ocean3's ranks unwound out of run_ensemble_instance via the injected
  // kill, so they never reached the recording code below the call.
  EXPECT_FALSE(observed.member_intervals.contains("Ocean3"));

  // The statistics component completed every interval, aggregating the
  // survivors, and reports the dead member by name.
  EXPECT_EQ(observed.stats.snapshots.size(),
            static_cast<std::size_t>(kIntervals));
  ASSERT_EQ(observed.stats.failed_members.size(), 1u);
  EXPECT_EQ(observed.stats.failed_members.front(), "Ocean3");

  // Liveness API: ping is false, require_alive throws the structured error.
  EXPECT_FALSE(observed.ocean3_ping);
  EXPECT_EQ(observed.failed_world_rank, kVictimRank);
  EXPECT_EQ(observed.failed_operation, "step");
  EXPECT_NE(observed.require_alive_error.find("Ocean3"), std::string::npos)
      << observed.require_alive_error;

  // The statistics rank left no communication debt behind.
  EXPECT_TRUE(observed.stats_finalize_clean);
}

TEST(MimeIsolation, NoInjectionRunsCleanWithIsolationEnabled) {
  // Isolation is inert without a failure: same job, no fault plan.
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;

  bool saw_failed_members = false;
  TestExec members{{}, "Ocean", 8, [](Mph& h, const Comm&) {
                     (void)mph::climate::run_ensemble_instance(
                         h, small_config(), "statistics");
                   }};
  TestExec statistics{
      {"statistics"}, "", 1, [&saw_failed_members](Mph& h, const Comm&) {
        const mph::climate::EnsembleResult result =
            mph::climate::run_ensemble_statistics(h, small_config(), "Ocean",
                                                  0.5);
        saw_failed_members = !result.failed_members.empty();
        EXPECT_EQ(result.snapshots.size(),
                  static_cast<std::size_t>(kIntervals));
      }};
  const JobReport report =
      mph::testing::run_mph_job(kRegistry, {members, statistics}, handshake);
  EXPECT_TRUE(report.ok) << report.abort_reason;
  EXPECT_TRUE(report.contained.empty());
  EXPECT_EQ(report.leaked_envelopes, 0u);
  EXPECT_FALSE(saw_failed_members);
}

TEST(MimeIsolation, EveryMemberJoinsItsDomainBeforeAnyLeavesTheHandshake) {
  // The launcher heals and respawns a domain once every registered member
  // has exited, so a member must not reach user code (and fail there)
  // while a partner has yet to register.  Rank 3's last allgather message
  // to rank 1 is held back, so rank 1 registers late; rank 0, its
  // partner in Ocean1, must still find both ranks in the domain.
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  minimpi::JobOptions job = mph::testing::test_job_options();
  minimpi::EnvelopeMatch last_to_1;
  last_to_1.context = minimpi::kWorldContext;
  last_to_1.src = 3;
  last_to_1.dest = 1;
  job.faults.delay(last_to_1, std::chrono::milliseconds(200));

  std::vector<minimpi::rank_t> ocean1;
  TestExec members{{}, "Ocean", 4, [&ocean1](Mph& h, const Comm& world) {
                     if (world.rank() != 0) return;
                     minimpi::Job& job = world.job();
                     ocean1 = job.domain_ranks(job.domain_of(0));
                     EXPECT_EQ(h.comp_name(), "Ocean1");
                   }};
  const JobReport report = mph::testing::run_mph_job(
      "BEGIN\nMulti_Instance_Begin\nOcean1 0 1\nOcean2 2 3\n"
      "Multi_Instance_End\nEND\n",
      {members}, handshake, std::move(job));
  ASSERT_TRUE(report.ok) << report.abort_reason;
  std::sort(ocean1.begin(), ocean1.end());
  EXPECT_EQ(ocean1, (std::vector<minimpi::rank_t>{0, 1}));
}

TEST(MimeIsolation, ReplacementRejoinsWhileRankZeroIsStillInTheHandshake) {
  // rejoin_handshake reads the layout the handshake published.  Rank 4's
  // message to rank 0, the last of the signature allgather at 5 ranks, is
  // held back, so rank 0 is still in the handshake while Ocean2 leaves it,
  // fails in user code and is respawned; the replacement must still find
  // the layout.
  const std::string registry =
      "BEGIN\nMulti_Instance_Begin\nOcean1 0 1\nOcean2 2 3\n"
      "Multi_Instance_End\nstatistics\nEND\n";
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  minimpi::JobOptions job = mph::testing::test_job_options();
  job.respawn.enabled = true;
  job.respawn.backoff = std::chrono::milliseconds(1);
  minimpi::EnvelopeMatch last_to_0;
  last_to_0.context = minimpi::kWorldContext;
  last_to_0.src = 4;
  last_to_0.dest = 0;
  job.faults.delay(last_to_0, std::chrono::milliseconds(200));

  std::atomic<int> rejoined{0};
  std::vector<minimpi::ExecSpec> specs;
  specs.push_back(minimpi::ExecSpec{
      "members", 4,
      [&](const Comm& world, const minimpi::ExecEnv& env) {
        if (env.incarnation > 0) {
          const Mph h = Mph::rejoin_instance(world, "Ocean", handshake);
          EXPECT_EQ(h.comp_name(), "Ocean2");
          ++rejoined;
          return;
        }
        const Mph h = Mph::multi_instance(
            world, mph::RegistrySource::from_text(registry), "Ocean",
            handshake);
        if (h.comp_name() == "Ocean2") {
          throw std::runtime_error("Ocean2 fails after its handshake");
        }
      },
      {}});
  specs.push_back(minimpi::ExecSpec{
      "statistics", 1,
      [&](const Comm& world, const minimpi::ExecEnv&) {
        (void)Mph::components_setup(
            world, mph::RegistrySource::from_text(registry), {"statistics"},
            handshake);
      },
      {}});
  const JobReport report = minimpi::run_mpmd(specs, std::move(job));
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
  EXPECT_EQ(report.recovery.respawns.size(), 1u);
  EXPECT_EQ(report.contained.size(), 2u);  // only the first incarnation
  EXPECT_EQ(rejoined.load(), 2);
}

}  // namespace
