// Shared helpers for the MPH benchmark suite (experiments E1-E10, see
// DESIGN.md §4 and EXPERIMENTS.md).
//
// Benchmarks that measure an in-job quantity (handshake time, collective
// latency, transfer throughput) run a fresh MPMD job per iteration and
// extract the *maximum across ranks* of the per-rank timing — the number a
// user would see as "setup cost" — reporting it through
// benchmark::State::SetIterationTime (manual-time mode).
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/mph/mph.hpp"
#include "src/util/timer.hpp"

namespace mph::bench {

inline minimpi::JobOptions bench_job_options() {
  minimpi::JobOptions options;
  options.recv_timeout = std::chrono::seconds(120);
  return options;
}

/// Atomically accumulate the maximum of per-rank timings (seconds).
class MaxSeconds {
 public:
  void update(double seconds) noexcept {
    double current = max_.load(std::memory_order_relaxed);
    while (seconds > current &&
           !max_.compare_exchange_weak(current, seconds,
                                       std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double get() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { max_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> max_{0.0};
};

/// Registry text for `n` single-component executables c0..c{n-1} (SCME).
inline std::string scme_registry(int n) {
  std::string text = "BEGIN\n";
  for (int i = 0; i < n; ++i) text += "c" + std::to_string(i) + "\n";
  text += "END\n";
  return text;
}

/// Command file for `n` single-component executables with `ranks_each`
/// processes each, every rank performing MPH setup and timing it.
inline std::vector<minimpi::ExecSpec> scme_job(
    int n, int ranks_each, const std::string& registry,
    MaxSeconds& setup_time) {
  std::vector<minimpi::ExecSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    specs.push_back(minimpi::ExecSpec{
        "c" + std::to_string(i), ranks_each,
        [&registry, &setup_time, i](const minimpi::Comm& world,
                                    const minimpi::ExecEnv&) {
          const util::Timer timer;
          mph::Mph h = mph::Mph::components_setup(
              world, mph::RegistrySource::from_text(registry),
              {"c" + std::to_string(i)});
          setup_time.update(timer.seconds());
          benchmark::DoNotOptimize(h.total_components());
        },
        {}});
  }
  return specs;
}

/// Abort the benchmark binary loudly if a job failed (a silent failure
/// would report nonsense timings).
inline void require_ok(const minimpi::JobReport& report, const char* what) {
  if (!report.ok) {
    std::fprintf(stderr, "benchmark job '%s' failed: %s\n", what,
                 report.abort_reason.c_str());
    std::abort();
  }
}

/// Entry point shared by every benchmark binary (via MPH_BENCH_MAIN): the
/// standard Google Benchmark main, plus a `--json <file>` (or
/// `--json=<file>`) convenience flag expanded to
/// `--benchmark_out=<file> --benchmark_out_format=json` — the machine
/// readable reporter that the perf-smoke CI job's same-run overhead gate
/// (scripts/check_bench_regression.py overhead) reads.
inline int run_bench_main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kJsonEq = "--json=";
    if (arg == "--json" && i + 1 < argc) {
      storage.push_back("--benchmark_out=" + std::string(argv[++i]));
      storage.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind(kJsonEq, 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(std::strlen(kJsonEq)));
      storage.emplace_back("--benchmark_out_format=json");
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace mph::bench

/// Drop-in replacement for BENCHMARK_MAIN() adding the `--json` flag.
#define MPH_BENCH_MAIN()                           \
  int main(int argc, char** argv) {                \
    return mph::bench::run_bench_main(argc, argv); \
  }                                                \
  int main(int argc, char** argv)
