// Whole-job restart from checkpoints across all five integration modes
// (SCSE, SCME, MCSE, MCME, MIME): kill the job at every recovery kill
// point, relaunch against the same checkpoint store, and require the final
// results to be numerically identical to the fault-free run.  This is the
// allreduce-min consistency argument of DESIGN.md §13 exercised end to
// end: components die up to one coupling interval apart, and the retained
// two steps always contain a common restart point.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/minimpi/fault.hpp"
#include "tests/mph/mph_test_util.hpp"

namespace {

using minimpi::Comm;
using minimpi::JobReport;
using mph::Mph;
using mph::climate::ClimateConfig;
using mph::climate::ComponentResult;
using mph::climate::EnsembleResult;
using mph::climate::EnsembleSnapshot;
using mph::recover::CheckpointStore;
using mph::testing::TestExec;

ClimateConfig test_config() {
  ClimateConfig cfg;
  cfg.atm_nlon = 8;
  cfg.atm_nlat = 6;
  cfg.ocn_nlon = 12;
  cfg.ocn_nlat = 8;
  cfg.steps_per_interval = 2;
  cfg.intervals = 3;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  // pid-unique: ctest runs tests of this binary as concurrent processes.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mph_restart_" + std::to_string(::getpid()) + "_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Coupled-system modes (SCME / MCSE / MCME).
// ---------------------------------------------------------------------------

struct CoupledOutcome {
  std::vector<double> mean_sst;
  std::vector<double> mean_t_atm;
};

enum class Wiring { scme, mcse, mcme };

/// One launch of the coupled system under `wiring` with recovery into
/// `store_dir`; `kill_step` < 0 runs fault-free, otherwise `kill_rank`
/// dies at that coupling interval and the job aborts.
JobReport run_coupled(Wiring wiring, const ClimateConfig& cfg,
                      const std::string& store_dir, std::int64_t kill_step,
                      minimpi::rank_t kill_rank, CoupledOutcome& outcome) {
  minimpi::JobOptions job = mph::testing::test_job_options();
  if (kill_step >= 0) {
    job.faults.kill_at_step(kill_rank, static_cast<std::uint64_t>(kill_step));
  }
  std::mutex mutex;
  auto body = [&](Mph& h, const Comm&) {
    CheckpointStore store(store_dir);
    const ComponentResult r =
        mph::climate::run_coupled_component(h, cfg, {}, "coupler", &store);
    if (r.component == "coupler" && h.local_proc_id() == 0) {
      const std::lock_guard<std::mutex> lock(mutex);
      outcome.mean_sst = r.coupler.mean_sst;
      outcome.mean_t_atm = r.coupler.mean_t_atm;
    }
  };
  switch (wiring) {
    case Wiring::scme:
      return mph::testing::run_mph_job(
          "BEGIN\natmosphere\nocean\nland\nice\ncoupler\nEND\n",
          {TestExec{{"atmosphere"}, "", 2, body},
           TestExec{{"ocean"}, "", 2, body}, TestExec{{"land"}, "", 1, body},
           TestExec{{"ice"}, "", 1, body},
           TestExec{{"coupler"}, "", 1, body}},
          {}, std::move(job));
    case Wiring::mcse: {
      const std::string registry = R"(BEGIN
Multi_Component_Begin
atmosphere 0 1
ocean 2 3
land 4 4
ice 5 5
coupler 6 6
Multi_Component_End
END
)";
      auto master = [&, body](Mph& h, const Comm& world) {
        for (const char* role :
             {"atmosphere", "ocean", "land", "ice", "coupler"}) {
          if (h.proc_in_component(role)) body(h, world);
        }
      };
      return mph::testing::run_mph_job(
          registry,
          {TestExec{{"atmosphere", "ocean", "land", "ice", "coupler"}, "", 7,
                    master}},
          {}, std::move(job));
    }
    case Wiring::mcme: {
      const std::string registry = R"(BEGIN
Multi_Component_Begin
atmosphere 0 1
land 2 2
Multi_Component_End
Multi_Component_Begin
ocean 0 1
ice 2 2
Multi_Component_End
coupler
END
)";
      return mph::testing::run_mph_job(
          registry,
          {TestExec{{"atmosphere", "land"}, "", 3, body},
           TestExec{{"ocean", "ice"}, "", 3, body},
           TestExec{{"coupler"}, "", 1, body}},
          {}, std::move(job));
    }
  }
  return {};
}

void expect_same_series(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << what << " interval " << i;
  }
}

void coupled_kill_restart_converges(Wiring wiring, const char* tag,
                                    minimpi::rank_t kill_rank) {
  const ClimateConfig cfg = test_config();

  CoupledOutcome reference;
  const JobReport ref_report = run_coupled(
      wiring, cfg, fresh_dir(std::string(tag) + "_ref"), -1, 0, reference);
  ASSERT_TRUE(ref_report.ok) << ref_report.abort_reason;
  ASSERT_EQ(reference.mean_sst.size(),
            static_cast<std::size_t>(cfg.intervals));

  for (int kill = 0; kill < cfg.intervals; ++kill) {
    const std::string dir =
        fresh_dir(std::string(tag) + "_kill" + std::to_string(kill));
    CoupledOutcome dead;
    const JobReport killed =
        run_coupled(wiring, cfg, dir, kill, kill_rank, dead);
    // No failure domains in the coupled wiring: the kill aborts the job.
    EXPECT_FALSE(killed.ok) << tag << " kill " << kill;

    CoupledOutcome resumed;
    const JobReport restart = run_coupled(wiring, cfg, dir, -1, 0, resumed);
    ASSERT_TRUE(restart.ok)
        << tag << " kill " << kill << ": " << restart.abort_reason << " / "
        << restart.first_error();
    expect_same_series(resumed.mean_sst, reference.mean_sst, tag);
    expect_same_series(resumed.mean_t_atm, reference.mean_t_atm, tag);
  }
}

TEST(RestartModes, SCMEKillEveryIntervalRestartConverges) {
  coupled_kill_restart_converges(Wiring::scme, "scme", /*kill_rank=*/2);
}

TEST(RestartModes, MCSEKillEveryIntervalRestartConverges) {
  coupled_kill_restart_converges(Wiring::mcse, "mcse", /*kill_rank=*/3);
}

TEST(RestartModes, MCMEKillEveryIntervalRestartConverges) {
  coupled_kill_restart_converges(Wiring::mcme, "mcme", /*kill_rank=*/3);
}

// ---------------------------------------------------------------------------
// SCSE: a single-component, single-executable job (the trivial wiring),
// driven by a solo checkpointing loop over the ocean model.
// ---------------------------------------------------------------------------

std::vector<double> run_scse(const ClimateConfig& cfg,
                             const std::string& store_dir,
                             std::int64_t kill_step, JobReport& report) {
  minimpi::JobOptions job = mph::testing::test_job_options();
  if (kill_step >= 0) {
    job.faults.kill_at_step(0, static_cast<std::uint64_t>(kill_step));
  }
  std::vector<double> series;
  std::mutex mutex;
  report = mph::testing::run_mph_job(
      "BEGIN\nsolo\nEND\n",
      {TestExec{
          {"solo"}, "", 2,
          [&](Mph& h, const Comm&) {
            mph::climate::Ocean model(cfg, h.comp_comm());
            CheckpointStore store(store_dir);
            std::vector<double> means;
            int start = 0;
            if (const auto ckpt = store.load_latest(h.comp_name())) {
              model.restore_state(ckpt->doubles("primary"), {}, false);
              means = ckpt->doubles("mean_series");
              start = static_cast<int>(ckpt->step()) + 1;
            }
            for (int interval = start; interval < cfg.intervals; ++interval) {
              h.world().fault_checkpoint(
                  static_cast<std::uint64_t>(interval));
              for (int s = 0; s < cfg.steps_per_interval; ++s) model.step();
              means.push_back(model.global_mean());
              const std::vector<double> full = model.export_state_primary();
              if (h.local_proc_id() == 0) {
                mph::recover::Checkpoint ckpt(
                    static_cast<std::uint64_t>(interval));
                ckpt.put_doubles("primary", full);
                ckpt.put_doubles("mean_series", means);
                store.save(h.comp_name(), ckpt);
              }
            }
            if (h.local_proc_id() == 0) {
              const std::lock_guard<std::mutex> lock(mutex);
              series = means;
            }
          }}},
      {}, std::move(job));
  return series;
}

TEST(RestartModes, SCSEKillEveryIntervalRestartConverges) {
  ClimateConfig cfg = test_config();
  cfg.intervals = 4;
  JobReport report;
  const std::vector<double> reference =
      run_scse(cfg, fresh_dir("scse_ref"), -1, report);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(cfg.intervals));

  for (int kill = 0; kill < cfg.intervals; ++kill) {
    const std::string dir = fresh_dir("scse_kill" + std::to_string(kill));
    JobReport killed;
    (void)run_scse(cfg, dir, kill, killed);
    EXPECT_FALSE(killed.ok) << "kill " << kill;
    JobReport restart;
    const std::vector<double> resumed = run_scse(cfg, dir, -1, restart);
    ASSERT_TRUE(restart.ok) << restart.abort_reason;
    expect_same_series(resumed, reference, "scse");
  }
}

// ---------------------------------------------------------------------------
// MIME: ensemble + statistics, whole-job restart (no member isolation, so
// the kill aborts everything; the next launch restores instances AND the
// statistics component, which replays its unsent nudges).
// ---------------------------------------------------------------------------

const std::string kEnsembleRegistry = R"(BEGIN
Multi_Instance_Begin
Ocean1 0 1 diff=0.5
Ocean2 2 3 diff=1.0
Ocean3 4 5 diff=2.0
Multi_Instance_End
statistics
END
)";

std::vector<EnsembleSnapshot> run_mime(const ClimateConfig& cfg,
                                       const std::string& store_dir,
                                       std::int64_t kill_step,
                                       JobReport& report) {
  minimpi::JobOptions job = mph::testing::test_job_options();
  if (kill_step >= 0) {
    job.faults.kill_at_step(4, static_cast<std::uint64_t>(kill_step));
  }
  std::vector<EnsembleSnapshot> snapshots;
  std::mutex mutex;
  report = mph::testing::run_mph_job(
      kEnsembleRegistry,
      {TestExec{{}, "Ocean", 6,
                [&](Mph& h, const Comm&) {
                  CheckpointStore store(store_dir);
                  (void)mph::climate::run_ensemble_instance(
                      h, cfg, "statistics", &store);
                }},
       TestExec{{"statistics"}, "", 1,
                [&](Mph& h, const Comm&) {
                  CheckpointStore store(store_dir);
                  const EnsembleResult r =
                      mph::climate::run_ensemble_statistics(h, cfg, "Ocean",
                                                            0.5, &store);
                  if (h.local_proc_id() == 0) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    snapshots = r.snapshots;
                  }
                }}},
      {}, std::move(job));
  return snapshots;
}

TEST(RestartModes, MIMEKillEveryKillPointRestartConverges) {
  ClimateConfig cfg = test_config();
  cfg.ocn_nlon = 12;
  cfg.ocn_nlat = 8;
  JobReport report;
  const std::vector<EnsembleSnapshot> reference =
      run_mime(cfg, fresh_dir("mime_ref"), -1, report);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(cfg.intervals));

  // Recovery mode doubles the kill points: 2i at the interval boundary,
  // 2i+1 between the member's sample and its nudge.
  for (int kill = 0; kill < 2 * cfg.intervals; ++kill) {
    const std::string dir = fresh_dir("mime_kill" + std::to_string(kill));
    JobReport killed;
    (void)run_mime(cfg, dir, kill, killed);
    EXPECT_FALSE(killed.ok) << "kill " << kill;

    JobReport restart;
    const std::vector<EnsembleSnapshot> resumed =
        run_mime(cfg, dir, -1, restart);
    ASSERT_TRUE(restart.ok) << "kill " << kill << ": "
                            << restart.abort_reason << " / "
                            << restart.first_error();
    ASSERT_EQ(resumed.size(), reference.size()) << "kill " << kill;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_DOUBLE_EQ(resumed[i].mean, reference[i].mean)
          << "kill " << kill << " interval " << i;
      EXPECT_DOUBLE_EQ(resumed[i].variance, reference[i].variance)
          << "kill " << kill << " interval " << i;
    }
  }
}

}  // namespace
