// ensemble — MIME mode (paper §2.5/§4.4): a 4-instance ocean ensemble run
// as ONE job, with a statistics component computing on-the-fly ensemble
// mean, variance, min/max, and the median (a nonlinear order statistic
// that cannot be recovered from post-processed independent runs), and
// optionally steering the instances toward the ensemble mean.
//
// Each instance reads its own parameters from the registration file:
// diffusivity perturbation (diff=...) and an input-file field — the paper's
// "different input/output names can be passed on to different runs".
//
// The ensemble runs with MIME failure isolation: a rank failure inside one
// member aborts only that member, the siblings and the statistics
// component run to completion, and the statistics aggregate the survivors.
// `--kill` demonstrates this with deterministic fault injection.
//
// With `--ckpt DIR` every member (and the statistics) checkpoints each
// coupling interval into DIR; adding `--heal` runs the job under the
// respawning supervisor: a killed member is relaunched, restores its
// latest checkpoint, rejoins the running application, and the final
// statistics are identical to the fault-free run.
//
// Run:   ./ensemble [gain] [--kill Member[:interval]] [--ckpt DIR] [--heal]
//        (gain 0 = free ensemble, >0 = steered;
//         --kill Ocean3:2 kills member Ocean3 at coupling interval 2)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/climate/scenario.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/mph/mph.hpp"
#include "src/mph/recover.hpp"

namespace {

const std::string kRegistry = R"(BEGIN
Multi_Instance_Begin   ! 4 ocean ensemble members, one executable
Ocean1 0 1  ocean1.nml diff=0.5
Ocean2 2 3  ocean2.nml diff=0.8
Ocean3 4 5  ocean3.nml diff=1.3
Ocean4 6 7  ocean4.nml diff=2.0
Multi_Instance_End
statistics             ! aggregates the instantaneous ensemble state
END
)";

constexpr int kMembers = 4;
constexpr int kRanksPerMember = 2;

std::string g_store_dir;  ///< --ckpt DIR; empty = recovery off
bool g_heal = false;      ///< --heal: supervisor respawn + liveness retries

mph::climate::ClimateConfig make_config() {
  mph::climate::ClimateConfig cfg;
  cfg.ocn_nlon = 36;
  cfg.ocn_nlat = 18;
  cfg.steps_per_interval = 5;
  cfg.intervals = 8;
  return cfg;
}

mph::HandshakeOptions isolated() {
  mph::HandshakeOptions options;
  options.isolate_instances = true;
  if (g_heal) {
    // Ride out the death-to-respawn window: probe a dead peer for up to
    // ~10 s before declaring it gone for good.
    options.liveness.attempts = 200;
    options.liveness.backoff = std::chrono::milliseconds(50);
    options.liveness.backoff_factor = 1.0;
  }
  return options;
}

void instance_main(const minimpi::Comm& world, const minimpi::ExecEnv& env) {
  // One executable, replicated 4 times by MPH (§4.4):
  //   Ocean_World = MPH_multi_instance("Ocean")
  // A respawned incarnation must NOT redo the world-collective handshake
  // (the survivors are mid-run): it rejoins from the blackboard layout.
  mph::Mph h = env.incarnation == 0
                   ? mph::Mph::multi_instance(
                         world, mph::RegistrySource::from_text(kRegistry),
                         "Ocean", isolated())
                   : mph::Mph::rejoin_instance(world, "Ocean", isolated());

  // Per-instance parameters, exactly the paper's MPH_get_argument.
  double diff = 1.0;
  h.get_argument("diff", diff);
  std::string namelist = "<none>";
  h.get_argument_field(1, namelist);
  if (h.local_proc_id() == 0) {
    if (env.incarnation == 0) {
      std::printf("[%s] %d ranks, namelist=%s, diff=%.2f\n",
                  h.comp_name().c_str(), h.comp_comm().size(),
                  namelist.c_str(), diff);
    } else {
      std::printf("[%s] incarnation %d rejoined; restoring from %s\n",
                  h.comp_name().c_str(), env.incarnation,
                  g_store_dir.c_str());
    }
  }

  std::optional<mph::recover::CheckpointStore> store;
  if (!g_store_dir.empty()) store.emplace(g_store_dir);
  (void)mph::climate::run_ensemble_instance(h, make_config(), "statistics",
                                            store ? &*store : nullptr);
}

void statistics_main(const minimpi::Comm& world, const minimpi::ExecEnv& env) {
  mph::Mph h = mph::Mph::components_setup(
      world, mph::RegistrySource::from_text(kRegistry), {"statistics"},
      isolated());
  const double gain = env.args.empty() ? 0.0 : std::atof(env.args[0].c_str());

  std::optional<mph::recover::CheckpointStore> store;
  if (!g_store_dir.empty()) store.emplace(g_store_dir);
  const mph::climate::EnsembleResult result =
      mph::climate::run_ensemble_statistics(h, make_config(), "Ocean", gain,
                                            store ? &*store : nullptr);

  std::printf("\nensemble SST statistics per coupling interval (gain=%.2f):\n",
              gain);
  std::printf(
      "interval |     mean |   median |      min |      max |  stddev\n");
  for (std::size_t i = 0; i < result.snapshots.size(); ++i) {
    const auto& s = result.snapshots[i];
    std::printf("%8zu | %8.4f | %8.4f | %8.4f | %8.4f | %7.4f\n", i, s.mean,
                s.median, s.min, s.max, std::sqrt(s.variance));
  }
  for (const std::string& member : result.healed_members) {
    std::printf("member %s died and was HEALED in place; every interval "
                "aggregates the full ensemble\n",
                member.c_str());
  }
  for (const std::string& member : result.failed_members) {
    const auto failure = h.failure_of(member);
    std::printf("member %s FAILED (%s); its samples were skipped\n",
                member.c_str(),
                failure ? failure->to_string().c_str() : "cause unknown");
  }
  const mph::Mph::FinalizeReport fin = h.finalize();
  if (!fin.clean()) {
    std::printf("statistics finalize: %zu envelope(s) from dead members "
                "discarded\n",
                fin.drained_envelopes);
  }
}

/// "Member[:interval]" → kill plan pinning member's first world rank at the
/// given coupling interval (run_ensemble_instance's fault checkpoint).
/// With checkpointing on, the member loop numbers its kill points 2i (the
/// interval boundary) and 2i+1 (between its sample and its nudge) — the
/// interval given here maps to the boundary point.
minimpi::FaultPlan parse_kill(const std::string& spec, bool recovery) {
  std::string member = spec;
  std::uint64_t interval = 0;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    member = spec.substr(0, colon);
    interval = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  }
  // Members occupy contiguous world ranks in registration order.
  for (int m = 0; m < kMembers; ++m) {
    if (member == "Ocean" + std::to_string(m + 1)) {
      minimpi::FaultPlan plan;
      plan.kill_at_step(m * kRanksPerMember,
                        recovery ? 2 * interval : interval);
      return plan;
    }
  }
  std::fprintf(stderr, "unknown ensemble member '%s' (Ocean1..Ocean%d)\n",
               member.c_str(), kMembers);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string gain = "0";
  std::string kill_spec;
  minimpi::JobOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kill" && i + 1 < argc) {
      kill_spec = argv[++i];
    } else if (arg == "--ckpt" && i + 1 < argc) {
      g_store_dir = argv[++i];
    } else if (arg == "--heal") {
      g_heal = true;
    } else {
      gain = arg;
    }
  }
  if (g_heal && g_store_dir.empty()) {
    std::fprintf(stderr, "--heal requires --ckpt DIR (the replacement "
                         "restores from the checkpoint store)\n");
    return 2;
  }
  if (!kill_spec.empty()) {
    options.faults = parse_kill(kill_spec, !g_store_dir.empty());
  }
  if (g_heal) {
    options.respawn.enabled = true;
    options.respawn.max_respawns = kMembers;
    options.respawn.backoff = std::chrono::milliseconds(10);
  }

  const minimpi::JobReport report = minimpi::run_mpmd(
      {
          // ONE executable entry replicated over 8 ranks: MPH expands it
          // into the 4 named instances from the registration file.
          {"ocean-ensemble", kMembers * kRanksPerMember, instance_main, {}},
          {"statistics", 1, statistics_main, {gain}},
      },
      options);
  for (const minimpi::RankFailure& f : report.contained) {
    std::printf("contained: world rank %d (%s): %s\n", f.world_rank,
                f.component.c_str(), f.what.c_str());
  }
  for (const minimpi::RespawnEvent& e : report.recovery.respawns) {
    std::printf("respawned %s (incarnation %d) after %s\n", e.label.c_str(),
                e.incarnation, e.cause.c_str());
  }
  if (!report.ok) {
    std::fprintf(stderr, "job failed: %s\n", report.abort_reason.c_str());
    return 1;
  }
  std::printf("ensemble: OK%s%s\n",
              report.contained.empty() ? "" : " (with contained failures)",
              report.recovery.healed() ? " (healed)" : "");
  return 0;
}
