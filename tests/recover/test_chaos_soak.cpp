// Randomized heal soak: for each seed, kill a randomly chosen ensemble
// member rank at a randomly chosen recovery kill point, let the supervisor
// respawn it, and require the final statistics to match the fault-free
// run bit for bit.  mph_watch rides along with a one-fault budget: every
// injected kill must surface as a fault_burn HealthEvent naming the
// victim's instance, and the fault-free reference must burn nothing — so
// the soak exercises the observability path as hard as the heal path.
// Seed count scales with MPH_CHAOS_SOAK_SEEDS (nightly CI cranks it up);
// failing seeds are appended to the file named by MPH_CHAOS_SOAK_ARTIFACT
// so a red run is reproducible locally with MPH_CHAOS_SOAK_SEEDS=1 after
// editing the seed below.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/watch/watch.hpp"
#include "src/mph/recover.hpp"
#include "src/util/rng.hpp"
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

constexpr int kIntervals = 4;
constexpr int kMembers = 4;

mph::climate::ClimateConfig soak_config() {
  mph::climate::ClimateConfig cfg;
  cfg.ocn_nlon = 12;
  cfg.ocn_nlat = 6;
  cfg.steps_per_interval = 2;
  cfg.intervals = kIntervals;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  // pid-unique: repeat/parallel soak invocations must not share stores.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mph_soak_" + std::to_string(::getpid()) + "_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::atoi(raw);
}

/// One supervised ensemble run; `kill_step` < 0 is the fault-free
/// reference.  Returns the job report; the final snapshots land in `out`.
JobReport run_soak(const std::string& store_dir, minimpi::rank_t victim,
                   std::int64_t kill_step,
                   std::vector<EnsembleSnapshot>& out) {
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  handshake.liveness.attempts = 100;
  handshake.liveness.backoff = std::chrono::milliseconds(50);
  handshake.liveness.backoff_factor = 1.0;

  minimpi::JobOptions job = mph::testing::test_job_options();
  job.respawn.enabled = true;
  job.respawn.max_respawns = 2;
  job.respawn.backoff = std::chrono::milliseconds(5);
  if (kill_step >= 0) {
    job.faults.kill_at_step(victim, static_cast<std::uint64_t>(kill_step));
  }
  // Watch every run with a one-fault budget.  A short live interval keeps
  // the watcher's ring primed, so the launcher's final observe is a judged
  // frame and the cumulative fault_burn rule cannot miss the kill no
  // matter when it landed.
  job.monitor.enabled = true;
  job.monitor.interval = std::chrono::milliseconds(10);
  job.monitor.dir = store_dir + "_logs";
  job.monitor.socket = false;
  job.watch.enabled = true;
  job.watch.fault_budget = 1;
  job.watch.fire_after = 1;
  job.watch.clear_after = 1;
  job.watch.flight_record = false;  // no tracer in the soak jobs
  job.watch.dir = job.monitor.dir;

  const auto cfg = soak_config();
  const std::string store_copy = store_dir;
  std::mutex mutex;
  std::vector<minimpi::ExecSpec> specs;
  specs.push_back(minimpi::ExecSpec{
      "members", 2 * kMembers,
      [&handshake, cfg, store_copy](const Comm& world,
                                    const minimpi::ExecEnv& env) {
        const RegistrySource source = RegistrySource::from_text(kRegistry);
        Mph h = env.incarnation == 0
                    ? Mph::multi_instance(world, source, "Ocean", handshake)
                    : Mph::rejoin_instance(world, "Ocean", handshake);
        CheckpointStore store(store_copy);
        (void)mph::climate::run_ensemble_instance(h, cfg, "statistics", &store);
      },
      {}});
  specs.push_back(minimpi::ExecSpec{
      "statistics", 1,
      [&, cfg, store_copy](const Comm& world, const minimpi::ExecEnv&) {
        const RegistrySource source = RegistrySource::from_text(kRegistry);
        Mph h =
            Mph::components_setup(world, source, {"statistics"}, handshake);
        CheckpointStore store(store_copy);
        const EnsembleResult r = mph::climate::run_ensemble_statistics(
            h, cfg, "Ocean", 0.5, &store);
        const std::lock_guard<std::mutex> lock(mutex);
        out = r.snapshots;
      },
      {}});
  return minimpi::run_mpmd(specs, std::move(job));
}

/// The instance the registry assigns `rank` to (two ranks per member).
std::string member_of(minimpi::rank_t rank) {
  return "Ocean" + std::to_string(rank / 2 + 1);
}

bool burn_reported(const JobReport& report, const std::string& subject) {
  return std::any_of(report.health.begin(), report.health.end(),
                     [&](const minimpi::watch::HealthEvent& ev) {
                       return ev.rule == "fault_burn" && !ev.cleared &&
                              ev.subject == subject;
                     });
}

std::string describe_health(const JobReport& report) {
  std::string out = "health:";
  for (const minimpi::watch::HealthEvent& ev : report.health) {
    out += " " + ev.rule + "/" + ev.subject + (ev.cleared ? "(clear)" : "");
  }
  return out;
}

void record_failing_seed(std::uint64_t seed, minimpi::rank_t victim,
                         std::int64_t kill_step, const std::string& why) {
  const char* artifact = std::getenv("MPH_CHAOS_SOAK_ARTIFACT");
  if (artifact == nullptr || *artifact == '\0') return;
  std::ofstream f(artifact, std::ios::app);
  f << "seed=" << seed << " victim_rank=" << victim
    << " kill_step=" << kill_step << " why=" << why << "\n";
}

TEST(ChaosSoak, RandomKillsAlwaysHealToFaultFreeStatistics) {
  const int seeds = env_int("MPH_CHAOS_SOAK_SEEDS", 3);

  std::vector<EnsembleSnapshot> reference;
  const JobReport ref = run_soak(fresh_dir("reference"), 0, -1, reference);
  ASSERT_TRUE(ref.ok) << ref.abort_reason;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kIntervals));
  // No injected faults, no burn: the fault-free run must not trip the
  // one-fault watch budget.
  for (const auto& ev : ref.health) {
    EXPECT_NE(ev.rule, "fault_burn") << describe_health(ref);
  }

  for (int i = 0; i < seeds; ++i) {
    const auto seed = static_cast<std::uint64_t>(1000 + i);
    mph::util::Rng rng(seed);
    // Kill either rank of a random member at a random kill point: 2i at
    // the interval boundary, 2i+1 between its sample and its nudge.
    const auto victim =
        static_cast<minimpi::rank_t>(rng() % (2 * kMembers));
    const auto kill_step =
        static_cast<std::int64_t>(rng() % (2 * kIntervals));
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " victim=" + std::to_string(victim) +
                 " kill_step=" + std::to_string(kill_step));

    std::vector<EnsembleSnapshot> healed;
    const JobReport report =
        run_soak(fresh_dir("seed" + std::to_string(seed)), victim, kill_step,
                 healed);
    const std::string victim_member = member_of(victim);
    bool ok = report.ok && report.recovery.healed() &&
              healed.size() == reference.size() &&
              burn_reported(report, victim_member);
    if (!ok) {
      record_failing_seed(seed, victim, kill_step,
                          !report.ok ? "job aborted: " + report.abort_reason
                          : !report.recovery.healed()
                              ? "no respawn recorded"
                          : healed.size() != reference.size()
                              ? "snapshot count mismatch"
                              : "no fault_burn health event for " +
                                    victim_member);
    }
    ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                           << report.first_error();
    EXPECT_TRUE(report.recovery.healed());
    // The injected kill must surface through mph_watch: a fault_burn
    // HealthEvent naming the victim's instance.
    EXPECT_TRUE(burn_reported(report, victim_member))
        << describe_health(report);
    ASSERT_EQ(healed.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      const bool match = healed[k].mean == reference[k].mean &&
                         healed[k].variance == reference[k].variance;
      if (!match && ok) {
        ok = false;
        record_failing_seed(seed, victim, kill_step,
                            "snapshot mismatch at interval " +
                                std::to_string(k));
      }
      EXPECT_DOUBLE_EQ(healed[k].mean, reference[k].mean)
          << "interval " << k;
      EXPECT_DOUBLE_EQ(healed[k].variance, reference[k].variance)
          << "interval " << k;
    }
  }
}

}  // namespace
