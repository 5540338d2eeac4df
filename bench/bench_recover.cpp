// E12 — cost of elasticity: checkpoint save/load latency by field size,
// the whole-job overhead of running a MIME ensemble with checkpointing on
// versus off (the "ckpt:0 / ckpt:1" pair gated relatively by perf-smoke,
// like the monitor overhead), and the end-to-end price of one member
// kill + respawn + rejoin + restore cycle.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/climate/scenario.hpp"
#include "src/mph/recover.hpp"

using namespace mph;
using namespace mph::bench;
using namespace mph::climate;
using mph::recover::Checkpoint;
using mph::recover::CheckpointStore;

namespace {

std::string bench_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mph_bench_recover_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

ClimateConfig recover_config() {
  ClimateConfig cfg;
  cfg.ocn_nlon = 24;
  cfg.ocn_nlat = 12;
  cfg.steps_per_interval = 3;
  cfg.intervals = 4;
  return cfg;
}

const std::string kRegistry = R"(BEGIN
Multi_Instance_Begin
Run0 0 1 diff=0.5
Run1 2 3 diff=0.8
Run2 4 5 diff=1.3
Run3 6 7 diff=2.0
Multi_Instance_End
statistics
END
)";

/// Durable round trip of one member checkpoint: serialize + CRC + atomic
/// rename on save, read + verify + parse on load.
void BM_CheckpointSaveLoad(benchmark::State& state) {
  const auto doubles = static_cast<std::size_t>(state.range(0));
  const CheckpointStore store(bench_dir("saveload"), /*retain=*/2);
  const std::vector<double> field(doubles, 3.25);
  std::uint64_t step = 0;
  for (auto _ : state) {
    const util::Timer timer;
    Checkpoint ckpt(step);
    ckpt.put_doubles("primary", field);
    ckpt.put_scalar("t", static_cast<double>(step));
    store.save("member", ckpt);
    const auto back = store.load_step("member", step);
    state.SetIterationTime(timer.seconds());
    if (!back.has_value()) std::abort();
    benchmark::DoNotOptimize(back->doubles("primary").front());
    ++step;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(doubles * sizeof(double)));
}

/// Whole MIME ensemble job, checkpointing off (ckpt:0) vs on (ckpt:1).
/// perf-smoke gates ckpt:1 relative to ckpt:0 measured in the same run.
void BM_EnsembleRecover(benchmark::State& state) {
  const bool ckpt = state.range(0) != 0;
  const ClimateConfig cfg = recover_config();
  const std::string store_dir = bench_dir("ensemble");

  for (auto _ : state) {
    std::filesystem::remove_all(store_dir);  // every run starts cold
    const util::Timer timer;
    const auto report = minimpi::run_mpmd(
        {
            minimpi::ExecSpec{
                "ensemble", 8,
                [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
                  Mph h = Mph::multi_instance(
                      world, RegistrySource::from_text(kRegistry), "Run");
                  CheckpointStore store(store_dir);
                  benchmark::DoNotOptimize(
                      run_ensemble_instance(h, cfg, "statistics",
                                            ckpt ? &store : nullptr)
                          .my_means);
                },
                {}},
            minimpi::ExecSpec{
                "statistics", 1,
                [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
                  Mph h = Mph::components_setup(
                      world, RegistrySource::from_text(kRegistry),
                      {"statistics"});
                  CheckpointStore store(store_dir);
                  benchmark::DoNotOptimize(
                      run_ensemble_statistics(h, cfg, "Run", 0.5,
                                              ckpt ? &store : nullptr)
                          .snapshots);
                },
                {}},
        },
        bench_job_options());
    state.SetIterationTime(timer.seconds());
    require_ok(report, "ensemble recover");
  }
}

/// One full heal cycle: a member killed mid-run, respawned by the
/// supervisor, rejoining via the blackboard and restoring its checkpoint.
/// Reported time is the whole job; the fault-free job above is the
/// reference for how much of it the heal adds.
void BM_MemberRejoinHeal(benchmark::State& state) {
  const ClimateConfig cfg = recover_config();
  const std::string store_dir = bench_dir("heal");

  HandshakeOptions handshake;
  handshake.isolate_instances = true;
  handshake.liveness.attempts = 100;
  handshake.liveness.backoff = std::chrono::milliseconds(20);
  handshake.liveness.backoff_factor = 1.0;

  for (auto _ : state) {
    std::filesystem::remove_all(store_dir);
    minimpi::JobOptions job = bench_job_options();
    job.respawn.enabled = true;
    job.respawn.max_respawns = 2;
    job.respawn.backoff = std::chrono::milliseconds(2);
    job.faults.kill_at_step(2, 2 * 2);  // Run1's first rank, interval 2

    const util::Timer timer;
    const auto report = minimpi::run_mpmd(
        {
            minimpi::ExecSpec{
                "ensemble", 8,
                [&](const minimpi::Comm& world,
                    const minimpi::ExecEnv& env) {
                  Mph h = env.incarnation == 0
                              ? Mph::multi_instance(
                                    world,
                                    RegistrySource::from_text(kRegistry),
                                    "Run", handshake)
                              : Mph::rejoin_instance(world, "Run",
                                                     handshake);
                  CheckpointStore store(store_dir);
                  benchmark::DoNotOptimize(
                      run_ensemble_instance(h, cfg, "statistics", &store)
                          .my_means);
                },
                {}},
            minimpi::ExecSpec{
                "statistics", 1,
                [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
                  Mph h = Mph::components_setup(
                      world, RegistrySource::from_text(kRegistry),
                      {"statistics"}, handshake);
                  CheckpointStore store(store_dir);
                  benchmark::DoNotOptimize(
                      run_ensemble_statistics(h, cfg, "Run", 0.5, &store)
                          .snapshots);
                },
                {}},
        },
        std::move(job));
    state.SetIterationTime(timer.seconds());
    require_ok(report, "member rejoin heal");
    if (!report.recovery.healed()) std::abort();
  }
}

}  // namespace

BENCHMARK(BM_CheckpointSaveLoad)
    ->ArgsProduct({{1024, 65536, 1048576}})
    ->ArgNames({"doubles"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8);

BENCHMARK(BM_EnsembleRecover)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"ckpt"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(BM_MemberRejoinHeal)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

MPH_BENCH_MAIN();
