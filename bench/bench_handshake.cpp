// E1 — handshake cost (paper §6): how MPH setup time scales with the
// number of ranks and the number of components, for SCME (§6.1), MCSE and
// MCME (§6.2) layouts.
//
// Claim reproduced: the handshake is a one-shot startup step whose cost
// grows mildly (one allgather + one or two comm splits).
#include "bench/bench_util.hpp"

using namespace mph;
using namespace mph::bench;

namespace {

/// SCME: `comps` single-component executables, `ranks_each` ranks apiece.
void BM_Handshake_SCME(benchmark::State& state) {
  const int comps = static_cast<int>(state.range(0));
  const int ranks_each = static_cast<int>(state.range(1));
  const std::string registry = scme_registry(comps);
  MaxSeconds setup_time;
  for (auto _ : state) {
    setup_time.reset();
    const auto report = minimpi::run_mpmd(
        scme_job(comps, ranks_each, registry, setup_time),
        bench_job_options());
    require_ok(report, "handshake-scme");
    state.SetIterationTime(setup_time.get());
  }
  state.counters["ranks"] = comps * ranks_each;
  state.counters["components"] = comps;
}

/// MCSE: one executable containing `comps` disjoint components.
void BM_Handshake_MCSE(benchmark::State& state) {
  const int comps = static_cast<int>(state.range(0));
  const int ranks_each = static_cast<int>(state.range(1));
  std::string registry = "BEGIN\nMulti_Component_Begin\n";
  std::vector<std::string> names;
  for (int i = 0; i < comps; ++i) {
    registry += "c" + std::to_string(i) + " " + std::to_string(i * ranks_each) +
                " " + std::to_string((i + 1) * ranks_each - 1) + "\n";
    names.push_back("c" + std::to_string(i));
  }
  registry += "Multi_Component_End\nEND\n";

  MaxSeconds setup_time;
  for (auto _ : state) {
    setup_time.reset();
    const auto report = minimpi::run_mpmd(
        {minimpi::ExecSpec{
            "master", comps * ranks_each,
            [&](const minimpi::Comm& world, const minimpi::ExecEnv&) {
              const util::Timer timer;
              Mph h = Mph::components_setup(
                  world, RegistrySource::from_text(registry), names);
              setup_time.update(timer.seconds());
              benchmark::DoNotOptimize(h.total_components());
            },
            {}}},
        bench_job_options());
    require_ok(report, "handshake-mcse");
    state.SetIterationTime(setup_time.get());
  }
  state.counters["ranks"] = comps * ranks_each;
  state.counters["components"] = comps;
}

/// MCME: `execs` executables of 2 disjoint components each.
void BM_Handshake_MCME(benchmark::State& state) {
  const int execs = static_cast<int>(state.range(0));
  const int ranks_each = static_cast<int>(state.range(1));  // per component
  std::string registry = "BEGIN\n";
  for (int e = 0; e < execs; ++e) {
    registry += "Multi_Component_Begin\n";
    registry += "a" + std::to_string(e) + " 0 " +
                std::to_string(ranks_each - 1) + "\n";
    registry += "b" + std::to_string(e) + " " + std::to_string(ranks_each) +
                " " + std::to_string(2 * ranks_each - 1) + "\n";
    registry += "Multi_Component_End\n";
  }
  registry += "END\n";

  MaxSeconds setup_time;
  for (auto _ : state) {
    setup_time.reset();
    std::vector<minimpi::ExecSpec> specs;
    for (int e = 0; e < execs; ++e) {
      specs.push_back(minimpi::ExecSpec{
          "exec" + std::to_string(e), 2 * ranks_each,
          [&registry, &setup_time, e](const minimpi::Comm& world,
                                      const minimpi::ExecEnv&) {
            const util::Timer timer;
            Mph h = Mph::components_setup(
                world, RegistrySource::from_text(registry),
                {"a" + std::to_string(e), "b" + std::to_string(e)});
            setup_time.update(timer.seconds());
            benchmark::DoNotOptimize(h.total_components());
          },
          {}});
    }
    const auto report = minimpi::run_mpmd(specs, bench_job_options());
    require_ok(report, "handshake-mcme");
    state.SetIterationTime(setup_time.get());
  }
  state.counters["ranks"] = execs * 2 * ranks_each;
  state.counters["components"] = execs * 2;
}

/// Baseline: the same MPMD job with NO handshake — isolates launch cost.
void BM_LaunchOnly(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const util::Timer timer;
    const auto report = minimpi::run_spmd(
        ranks, [](const minimpi::Comm&, const minimpi::ExecEnv&) {},
        bench_job_options());
    state.SetIterationTime(timer.seconds());
    require_ok(report, "launch-only");
  }
  state.counters["ranks"] = ranks;
}

}  // namespace

// Sweep: components x ranks-per-component.
BENCHMARK(BM_Handshake_SCME)
    ->ArgsProduct({{2, 4, 8, 16}, {1, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8);
// Wide-job tail of the sweep (paper §6 at CCSM-ensemble scale): 64 and 128
// single-rank components.  One rank each keeps the thread count equal to
// the component count; fewer iterations since each job spins up that many
// threads.
BENCHMARK(BM_Handshake_SCME)
    ->ArgsProduct({{64, 128}, {1}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(3);
BENCHMARK(BM_Handshake_MCSE)
    ->ArgsProduct({{2, 4, 8}, {2, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8);
BENCHMARK(BM_Handshake_MCME)
    ->ArgsProduct({{2, 4}, {2, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8);
BENCHMARK(BM_LaunchOnly)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8);

MPH_BENCH_MAIN();
