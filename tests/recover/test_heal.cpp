// The acceptance scenario of the recovery subsystem: a MIME ensemble
// member is killed mid-run at a deterministic kill point, the launcher
// supervisor respawns its ranks, the replacement restores from its latest
// checkpoint, rejoins via the blackboard layout, and the final ensemble
// statistics are identical to the fault-free run — on both sides of the
// sample/nudge exchange.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/mph/recover.hpp"
#include "tests/mph/mph_test_util.hpp"

namespace {

using minimpi::Comm;
using minimpi::JobReport;
using mph::Mph;
using mph::RegistrySource;
using mph::climate::EnsembleResult;
using mph::climate::EnsembleSnapshot;
using mph::recover::CheckpointStore;

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
constexpr double kGain = 0.5;

mph::climate::ClimateConfig small_config() {
  mph::climate::ClimateConfig cfg;
  cfg.ocn_nlon = 18;
  cfg.ocn_nlat = 9;
  cfg.steps_per_interval = 2;
  cfg.intervals = kIntervals;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  // ctest runs each TEST as its own process; the pid keeps concurrent
  // processes (which each build their own reference) out of each other's
  // checkpoint stores.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mph_heal_" + std::to_string(::getpid()) + "_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct Observed {
  std::mutex mutex;
  std::map<std::string, std::size_t> member_intervals;
  EnsembleResult stats;
  bool ocean3_ping = false;
  std::vector<std::string> directory_failed;
};

/// Run the supervised ensemble.  `kill_step` < 0 disables the fault (the
/// fault-free reference); otherwise Ocean3's first rank dies at that
/// recovery kill point and the supervisor replaces the member.
JobReport run_supervised(const std::string& store_dir, std::int64_t kill_step,
                         Observed& observed, bool respawn_enabled = true,
                         int liveness_attempts = 50) {
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  handshake.liveness.attempts = liveness_attempts;
  handshake.liveness.backoff = std::chrono::milliseconds(100);
  handshake.liveness.backoff_factor = 1.0;

  minimpi::JobOptions job = mph::testing::test_job_options();
  job.respawn.enabled = respawn_enabled;
  job.respawn.max_respawns = 2;
  job.respawn.backoff = std::chrono::milliseconds(5);
  if (kill_step >= 0) {
    job.faults.kill_at_step(kVictimRank,
                            static_cast<std::uint64_t>(kill_step));
  }

  const auto cfg = small_config();
  std::vector<minimpi::ExecSpec> specs;
  specs.push_back(minimpi::ExecSpec{
      "members", 8,
      [&, cfg](const Comm& world, const minimpi::ExecEnv& env) {
        const RegistrySource source = RegistrySource::from_text(kRegistry);
        // A replacement incarnation re-enters here: it must rejoin the
        // running application instead of redoing the world-collective
        // handshake (the survivors are mid-run and will not participate).
        Mph h = env.incarnation == 0
                    ? Mph::multi_instance(world, source, "Ocean", handshake)
                    : Mph::rejoin_instance(world, "Ocean", handshake);
        CheckpointStore store(store_dir);
        const EnsembleResult r =
            mph::climate::run_ensemble_instance(h, cfg, "statistics", &store);
        const std::lock_guard<std::mutex> lock(observed.mutex);
        auto& slot = observed.member_intervals[h.comp_name()];
        slot = std::max(slot, r.my_means.size());
      },
      {}});
  specs.push_back(minimpi::ExecSpec{
      "statistics", 1,
      [&, cfg](const Comm& world, const minimpi::ExecEnv&) {
        const RegistrySource source = RegistrySource::from_text(kRegistry);
        Mph h = Mph::components_setup(world, source, {"statistics"},
                                      handshake);
        CheckpointStore store(store_dir);
        EnsembleResult r = mph::climate::run_ensemble_statistics(
            h, cfg, "Ocean", kGain, &store);
        const bool ping = h.ping("Ocean3");
        std::vector<std::string> failed = h.failed_components();
        const std::lock_guard<std::mutex> lock(observed.mutex);
        observed.stats = std::move(r);
        observed.ocean3_ping = ping;
        observed.directory_failed = std::move(failed);
      },
      {}});
  return minimpi::run_mpmd(specs, std::move(job));
}

/// Shared fault-free reference (computed once; gtest runs tests serially).
const std::vector<EnsembleSnapshot>& reference_snapshots() {
  static const std::vector<EnsembleSnapshot> reference = [] {
    Observed observed;
    const JobReport report =
        run_supervised(fresh_dir("reference"), -1, observed);
    EXPECT_TRUE(report.ok) << report.abort_reason;
    EXPECT_FALSE(report.recovery.healed());
    return observed.stats.snapshots;
  }();
  return reference;
}

void expect_heals_and_matches_reference(std::int64_t kill_step,
                                        const std::string& tag) {
  Observed observed;
  const JobReport report =
      run_supervised(fresh_dir(tag), kill_step, observed);

  // The job succeeded end to end and the supervisor healed the member.
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
  ASSERT_TRUE(report.recovery.healed());
  ASSERT_EQ(report.recovery.respawns.size(), 1u);
  const minimpi::RespawnEvent& event = report.recovery.respawns.front();
  EXPECT_EQ(event.incarnation, 1);
  EXPECT_EQ(event.ranks, (std::vector<minimpi::rank_t>{4, 5}));
  EXPECT_NE(event.cause.find("rank 4"), std::string::npos) << event.cause;

  // Both of Ocean3's original ranks died (the kill plus the collateral
  // unwind) and were contained, not job-fatal.
  EXPECT_TRUE(report.failures.empty());
  EXPECT_GE(report.contained.size(), 2u);

  // The replacement restored, recomputed, and finished every interval.
  ASSERT_TRUE(observed.member_intervals.contains("Ocean3"));
  EXPECT_EQ(observed.member_intervals.at("Ocean3"),
            static_cast<std::size_t>(kIntervals));

  // The statistics saw the member heal: nobody is reported failed, Ocean3
  // is reported healed, and the liveness caches are clean again.
  EXPECT_TRUE(observed.stats.failed_members.empty());
  ASSERT_EQ(observed.stats.healed_members.size(), 1u);
  EXPECT_EQ(observed.stats.healed_members.front(), "Ocean3");
  EXPECT_TRUE(observed.ocean3_ping);
  EXPECT_TRUE(observed.directory_failed.empty());

  // The decisive check: the healed ensemble's statistics are numerically
  // identical to the fault-free run, interval by interval.
  const std::vector<EnsembleSnapshot>& reference = reference_snapshots();
  ASSERT_EQ(observed.stats.snapshots.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_DOUBLE_EQ(observed.stats.snapshots[i].mean, reference[i].mean)
        << "interval " << i;
    EXPECT_DOUBLE_EQ(observed.stats.snapshots[i].variance,
                     reference[i].variance)
        << "interval " << i;
    EXPECT_DOUBLE_EQ(observed.stats.snapshots[i].min, reference[i].min);
    EXPECT_DOUBLE_EQ(observed.stats.snapshots[i].max, reference[i].max);
    EXPECT_DOUBLE_EQ(observed.stats.snapshots[i].median, reference[i].median);
  }
}

TEST(Heal, KilledAtIntervalBoundaryHealsToFaultFreeStatistics) {
  // Kill point 2i: the member dies before the interval's work, having
  // never sent its sample — the statistics wait out the respawn.
  expect_heals_and_matches_reference(2 * kKillInterval, "boundary");
}

TEST(Heal, KilledAfterSampleSentHealsToFaultFreeStatistics) {
  // Kill point 2i+1: the member dies after reporting but before the nudge
  // arrives — the replacement replays the sample and the statistics answer
  // it with the cached nudge.
  expect_heals_and_matches_reference(2 * kKillInterval + 1, "post_sample");
}

TEST(Heal, RecoveryProtocolMatchesLegacyNumerics) {
  // The interval-tagged recovery protocol must not change the numbers: a
  // fault-free run with recovery enabled equals the legacy run.
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  const auto cfg = small_config();
  std::vector<EnsembleSnapshot> legacy;
  std::mutex mutex;
  mph::testing::run_mph_ok(
      kRegistry,
      {mph::testing::TestExec{{}, "Ocean", 8,
                              [&cfg](Mph& h, const Comm&) {
                                (void)mph::climate::run_ensemble_instance(
                                    h, cfg, "statistics");
                              }},
       mph::testing::TestExec{
           {"statistics"}, "", 1,
           [&](Mph& h, const Comm&) {
             const EnsembleResult r = mph::climate::run_ensemble_statistics(
                 h, cfg, "Ocean", kGain);
             const std::lock_guard<std::mutex> lock(mutex);
             legacy = r.snapshots;
           }}},
      handshake);

  const std::vector<EnsembleSnapshot>& recovery = reference_snapshots();
  ASSERT_EQ(legacy.size(), recovery.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy[i].mean, recovery[i].mean) << "interval " << i;
    EXPECT_DOUBLE_EQ(legacy[i].variance, recovery[i].variance);
  }
}

TEST(Heal, WithoutRespawnTheMemberStaysDeadLegacySemantics) {
  // Recovery enabled but no supervisor and a single-shot liveness policy:
  // the death is final and reported exactly as before this subsystem.
  Observed observed;
  const JobReport report = run_supervised(
      fresh_dir("no_respawn"), 2 * kKillInterval, observed,
      /*respawn_enabled=*/false, /*liveness_attempts=*/1);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_FALSE(report.recovery.healed());
  ASSERT_EQ(observed.stats.failed_members.size(), 1u);
  EXPECT_EQ(observed.stats.failed_members.front(), "Ocean3");
  EXPECT_TRUE(observed.stats.healed_members.empty());
  EXPECT_FALSE(observed.ocean3_ping);
  // Survivors still aggregated every interval.
  EXPECT_EQ(observed.stats.snapshots.size(),
            static_cast<std::size_t>(kIntervals));
}

}  // namespace
