// ccsm_coupled — the paper's flagship scenario: a CCSM-like coupled
// climate system (atmosphere, ocean, land, sea ice, flux coupler) wired in
// MCME mode (§4.3): two multi-component executables plus a single-component
// coupler, with per-component log files via MPH_redirect_output (§5.4).
//
// Executable 1: atmosphere + land   (land on 1 rank, atm on 3)
// Executable 2: ocean + ice         (ice on 1 rank, ocean on 3)
// Executable 3: coupler             (1 rank)
//
// Run:   ./ccsm_coupled [intervals]
// Logs:  logs/atmosphere.log logs/ocean.log logs/land.log logs/ice.log
//        logs/coupler.log plus logs/mph_combined.log for non-root ranks.
// Trace: logs/ccsm_trace.json — an mph_trace timeline with one named track
//        per component rank (load it in Perfetto / chrome://tracing, or
//        summarize with `mph trace logs/ccsm_trace.json`).
// Live:  the mph_mon monitor is on — while the job runs, watch it with
//        `mph top logs/mph_monitor.sock`; afterwards the snapshot
//        history survives in logs/mph_metrics.jsonl
//        (`mph top logs/mph_metrics.jsonl --once`).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/climate/scenario.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/mph/mph.hpp"

namespace {

const std::string kRegistry = R"(BEGIN
Multi_Component_Begin  ! executable 1: atmosphere model with land module
atmosphere 0 2
land       3 3
Multi_Component_End
Multi_Component_Begin  ! executable 2: ocean model with ice module
ocean 0 2
ice   3 3
Multi_Component_End
coupler                ! executable 3: the flux coupler
END
)";

mph::climate::ClimateConfig make_config(int intervals) {
  mph::climate::ClimateConfig cfg;
  cfg.atm_nlon = 48;
  cfg.atm_nlat = 24;
  cfg.ocn_nlon = 72;
  cfg.ocn_nlat = 36;
  cfg.steps_per_interval = 4;
  cfg.intervals = intervals;
  return cfg;
}

void component_main(const minimpi::Comm& world,
                    const std::vector<std::string>& names, int intervals) {
  mph::Mph h = mph::Mph::components_setup(
      world, mph::RegistrySource::from_text(kRegistry), names);
  h.redirect_output();  // default "logs/"
  h.out() << h.comp_name() << " up: " << h.comp_comm().size()
          << " processes, world ranks " << h.exe_low_proc_limit() << ".."
          << h.exe_up_proc_limit() << std::endl;

  const mph::climate::ComponentResult result =
      mph::climate::run_coupled_component(h, make_config(intervals));

  if (h.local_proc_id() == 0 && !result.mean_series.empty()) {
    h.out() << result.component << " interval means:";
    for (double m : result.mean_series) {
      h.out() << ' ' << m;
    }
    h.out() << std::endl;
  }
  if (result.component == "coupler" && h.local_proc_id() == 0) {
    std::printf("interval |  mean T_atm |  mean SST | mean ice fraction\n");
    for (std::size_t i = 0; i < result.coupler.mean_sst.size(); ++i) {
      std::printf("%8zu | %11.4f | %9.4f | %17.4f\n", i,
                  result.coupler.mean_t_atm[i], result.coupler.mean_sst[i],
                  result.coupler.mean_icefrac[i]);
    }
  }
  h.flush_output();
}

}  // namespace

int main(int argc, char** argv) {
  const int intervals = argc > 1 ? std::atoi(argv[1]) : 6;
  if (intervals <= 0) {
    std::fprintf(stderr, "usage: %s [intervals>0]\n", argv[0]);
    return 2;
  }
  minimpi::JobOptions options;
  options.trace.enabled = true;  // MINIMPI_TRACE=capacity=N sets the rings
  options.monitor.enabled = true;  // live view: mph top logs/...
  options.monitor.interval = std::chrono::milliseconds(100);
  const minimpi::JobReport report = minimpi::run_mpmd(
      {
      {"atm-land", 4,
       [&](const minimpi::Comm& w, const minimpi::ExecEnv&) {
         component_main(w, {"atmosphere", "land"}, intervals);
       },
       {}},
      {"ocn-ice", 4,
       [&](const minimpi::Comm& w, const minimpi::ExecEnv&) {
         component_main(w, {"ocean", "ice"}, intervals);
       },
       {}},
      {"coupler", 1,
       [&](const minimpi::Comm& w, const minimpi::ExecEnv&) {
         component_main(w, {"coupler"}, intervals);
       },
       {}},
      },
      options);
  if (!report.ok) {
    std::fprintf(stderr, "job failed: %s\n", report.abort_reason.c_str());
    return 1;
  }
  if (report.trace.has_value()) {
    const std::string trace_path = "logs/ccsm_trace.json";
    std::ofstream out(trace_path);
    out << report.trace->to_chrome_json();
    if (out) {
      std::printf("trace written to %s (Perfetto/chrome://tracing)\n",
                  trace_path.c_str());
    }

    // Causal bottleneck summary: who owns the critical path, and how much
    // of the wall the accounting covers.  `mph report logs/
    // ccsm_trace.json` prints the full breakdown + what-ifs.
    const minimpi::prof::Profile profile =
        minimpi::prof::Graph::build(*report.trace).profile();
    const auto blame = profile.components();
    std::printf("critical path: %.3f ms of %.3f ms wall (%.1f%%)\n",
                static_cast<double>(profile.path_total_ns) / 1e6,
                static_cast<double>(profile.wall_ns()) / 1e6,
                profile.wall_ns() > 0
                    ? 100.0 * static_cast<double>(profile.path_total_ns) /
                          static_cast<double>(profile.wall_ns())
                    : 0.0);
    for (std::size_t i = 0; i < blame.size() && i < 3; ++i) {
      std::printf("  blame #%zu: %-12s %.1f%%\n", i + 1,
                  blame[i].component.c_str(), 100.0 * blame[i].share);
    }
    std::printf("full report: mph report %s\n", trace_path.c_str());
  }
  if (report.metrics.has_value()) {
    std::printf(
        "metrics history in logs/mph_metrics.jsonl "
        "(view: mph top logs/mph_metrics.jsonl --once)\n");
  }
  std::printf("ccsm_coupled: OK (%d coupling intervals)\n", intervals);
  return 0;
}
