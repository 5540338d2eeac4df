// mph_verify — systematic schedule exploration (stateless model checking)
// and wildcard-race detection for minimpi/MPH jobs.
//
// Usage:
//   mph_verify <scenario> [options]
//       Explore the scenario's wildcard-matching schedule space with the
//       verify() engine (src/minimpi/verify/), running mpicheck's checkers
//       on every schedule, and report races / failing schedules.
//
//   Scenarios (the five MPH execution modes, post-handshake bodies that
//   exchange messages through ANY_SOURCE receives, plus two seeded bugs):
//       scse            one executable, one component; ranks 1..N-1 send
//                       to rank 0, which sums N-1 wildcard receives
//       scme            atmosphere + ocean + coupler executables; every
//                       model rank reports to the coupler via wildcards
//       mcse            one Multi_Component executable (driver + worker)
//       mcme            a Multi_Component executable plus a coupler
//       mime            a Multi_Instance ensemble (Ocean1, Ocean2)
//                       reporting to a statistics executable
//       wildcard-race   BUG: rank 0 assumes its first wildcard receive is
//                       rank 1's message; a send timing makes that true in
//                       ordinary runs, but a schedule exists where rank 2
//                       matches first
//       order-deadlock  BUG: the coupler expects a second message from
//                       whichever sender its wildcard matched first; only
//                       one sender has a second message, the other blocks
//                       on an ack the coupler sends too late — an
//                       order-dependent deadlock mpicheck reports as a
//                       cycle on the bad schedule
//
//   Options:
//       --ranks N          scenario scale (scse: total ranks, default 3;
//                          others: ranks per model component, default 1)
//       --max-schedules N  schedule budget (default 10000, 0 = unlimited)
//       --budget-ms N      wall-clock budget (default 0 = unlimited)
//       --seed N           job seed recorded in every trace (default 1)
//       --dump-trace FILE  write the first failing schedule's decision
//                          trace as JSON (replayable with --schedule)
//       --schedule FILE    replay a dumped trace instead of exploring
//       --expect-failure   invert success: exit 0 iff a failing schedule
//                          was found (exploration) or reproduced (replay)
//       --require-complete exit 1 unless the whole tree was explored
//
// Exit status: 0 verification passed (or expected failure found), 1 a
// failing schedule was found (or an expectation was not met), 2 on usage
// errors, trace divergence, or internal errors.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/minimpi/verify/verify.hpp"
#include "src/mph/mph.hpp"
#include "src/util/strings.hpp"
#include "tools/mode_scenarios.hpp"

namespace {

using minimpi::Comm;
using minimpi::rank_t;

using mph_tools::kAckTag;
using mph_tools::kDataTag;
using mph_tools::label_fn;
using mph_tools::protocol_violation;
using mph_tools::Scenario;
using mph_tools::ScenarioExec;
using mph::util::parse_flag_uint;

/// Delay long enough that in an ordinary (unfenced) run the un-delayed
/// sender's message is always queued first — which is exactly the timing
/// assumption the seeded bugs encode and the explorer breaks.
void bug_hiding_delay() {
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

// --- seeded bugs (the runnable modes live in tools/mode_scenarios.hpp) ----

/// Rank 0 receives ANY_SOURCE but assumes the first message is rank 1's.
/// Rank 2's send is delayed, so ordinary runs always satisfy the
/// assumption; the schedule where rank 2 matches first is a latent bug
/// only exploration finds.
Scenario make_wildcard_race() {
  Scenario s;
  s.name = "wildcard-race";
  s.registry = "BEGIN\nsolo\nEND\n";
  s.execs.push_back(ScenarioExec{
      "solo", {"solo"}, "", 3, [](mph::Mph&, const Comm& world) {
        switch (world.rank()) {
          case 1:
            world.send(111, 0, kDataTag);
            break;
          case 2:
            bug_hiding_delay();
            world.send(222, 0, kDataTag);
            break;
          default: {
            int first = 0;
            int second = 0;
            world.recv(first, minimpi::any_source, kDataTag);
            if (first != 111) {
              protocol_violation(
                  "first wildcard message was " + std::to_string(first) +
                  ", code assumed rank 1's 111 always arrives first");
            }
            world.recv(second, minimpi::any_source, kDataTag);
          }
        }
      }});
  return s;
}

/// The coupler (rank 0) demands a SECOND message from whichever sender its
/// first wildcard receive matched.  Rank 1 sends two messages; rank 2
/// sends one and then blocks on an ack.  If the wildcard matches rank 2
/// first, rank 0 waits on rank 2 while rank 2 waits on rank 0 — a cycle
/// mpicheck reports.  Rank 2's delayed send hides the bug in ordinary runs.
Scenario make_order_deadlock() {
  Scenario s;
  s.name = "order-deadlock";
  s.registry = "BEGIN\nsolo\nEND\n";
  s.execs.push_back(ScenarioExec{
      "solo", {"solo"}, "", 3, [](mph::Mph&, const Comm& world) {
        switch (world.rank()) {
          case 1:
            world.send(1, 0, kDataTag);
            world.send(2, 0, kDataTag);
            break;
          case 2: {
            bug_hiding_delay();
            world.send(3, 0, kDataTag);
            int ack = 0;
            world.recv(ack, 0, kAckTag);
            break;
          }
          default: {
            int value = 0;
            const minimpi::Status first =
                world.recv(value, minimpi::any_source, kDataTag);
            // Bug: only rank 1 ever sends a second message.
            world.recv(value, first.source, kDataTag);
            world.send(0, 2, kAckTag);
            world.recv(value, minimpi::any_source, kDataTag);
          }
        }
      }});
  return s;
}

std::optional<Scenario> make_scenario(const std::string& name, int ranks) {
  if (name == "wildcard-race") return make_wildcard_race();
  if (name == "order-deadlock") return make_order_deadlock();
  return mph_tools::make_mode_scenario(name, ranks);
}

/// The verify() JobRunner for a scenario: one MPMD launch per schedule.
minimpi::verify::JobRunner runner_for(const Scenario& scenario) {
  return [&scenario](const minimpi::JobOptions& options) {
    return minimpi::run_mpmd(mph_tools::make_exec_specs(scenario), options);
  };
}

bool failing_report(const minimpi::JobReport& report) {
  if (!report.ok) return true;
  return report.check.has_value() && !report.check->clean();
}

struct Cli {
  std::string scenario;
  int ranks = 0;  // 0 = scenario default
  std::uint64_t max_schedules = 10000;
  std::chrono::milliseconds budget{0};
  std::uint64_t seed = 1;
  std::string dump_trace;
  std::string schedule;
  bool expect_failure = false;
  bool require_complete = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: mph_verify <scenario> [--ranks N] [--max-schedules N]\n"
      "                  [--budget-ms N] [--seed N] [--dump-trace FILE]\n"
      "                  [--schedule FILE] [--expect-failure]\n"
      "                  [--require-complete]\n"
      "scenarios: scse scme mcse mcme mime wildcard-race order-deadlock\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::optional<std::string> text = mph::util::read_file(path);
  if (!text) throw std::runtime_error("cannot read '" + path + "'");
  return std::move(*text);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

minimpi::JobOptions scenario_job_options() {
  minimpi::JobOptions options;
  // Bound every schedule: a stuck state the engine or mpicheck somehow
  // misses must still terminate the exploration run.
  options.recv_timeout = std::chrono::seconds(20);
  return options;
}

int run_replay(const Cli& cli, const Scenario& scenario) {
  const minimpi::verify::Trace trace =
      minimpi::verify::Trace::from_json(read_file(cli.schedule));
  const auto label = label_fn(scenario);
  std::printf("replaying %zu recorded decision(s) from %s (seed %llu)\n",
              trace.decisions.size(), cli.schedule.c_str(),
              static_cast<unsigned long long>(trace.seed));
  const minimpi::verify::ReplayResult result = minimpi::verify::replay(
      runner_for(scenario), trace, scenario_job_options());
  std::printf("%s\n", result.observed.to_string(label).c_str());
  if (result.diverged) {
    std::fprintf(stderr, "mph_verify: replay diverged: %s\n",
                 result.divergence.c_str());
    return 2;
  }
  const bool failed = failing_report(result.report);
  if (failed) {
    std::printf("replay reproduced the failure: %s\n",
                result.report.abort.has_value()
                    ? result.report.abort->to_string().c_str()
                    : result.report.first_error().c_str());
  } else {
    std::printf("replay completed without failure\n");
  }
  if (cli.expect_failure) return failed ? 0 : 1;
  return failed ? 1 : 0;
}

int run_explore(const Cli& cli, const Scenario& scenario) {
  minimpi::verify::VerifyOptions options;
  options.max_schedules = cli.max_schedules;
  options.budget = cli.budget;
  options.seed = cli.seed;
  options.job = scenario_job_options();
  options.label = label_fn(scenario);
  // When the caller expects a bug, keep the first failing schedule (its
  // trace is the artifact); otherwise stopping early is still right — one
  // counterexample refutes the configuration.
  options.stop_on_failure = true;

  const minimpi::verify::VerifyReport report =
      minimpi::verify::verify(runner_for(scenario), options);
  std::printf("%s\n", report.to_string(options.label).c_str());

  if (!cli.dump_trace.empty()) {
    if (report.failures.empty()) {
      std::fprintf(stderr,
                   "mph_verify: no failing schedule; nothing dumped to %s\n",
                   cli.dump_trace.c_str());
    } else {
      write_file(cli.dump_trace, report.failures.front().trace.to_json());
      std::printf("failing trace written to %s\n", cli.dump_trace.c_str());
    }
  }

  if (!report.divergence.empty()) return 2;
  if (cli.require_complete && !report.complete) {
    std::fprintf(stderr,
                 "mph_verify: exploration incomplete (--require-complete)\n");
    return 1;
  }
  const bool failed = !report.failures.empty();
  if (cli.expect_failure) {
    if (!failed) {
      std::fprintf(stderr,
                   "mph_verify: expected a failing schedule, found none\n");
      return 1;
    }
    return 0;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  Cli cli;
  cli.scenario = args[0];
  try {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          throw std::runtime_error(flag + " needs a value");
        }
        return args[++i];
      };
      if (flag == "--ranks") {
        cli.ranks = static_cast<int>(parse_flag_uint(flag, value(), 1, 64));
      } else if (flag == "--max-schedules") {
        cli.max_schedules = parse_flag_uint(flag, value());
      } else if (flag == "--budget-ms") {
        cli.budget = std::chrono::milliseconds(
            parse_flag_uint(flag, value(), 0, INT64_MAX));
      } else if (flag == "--seed") {
        cli.seed = parse_flag_uint(flag, value());
      } else if (flag == "--dump-trace") {
        cli.dump_trace = value();
      } else if (flag == "--schedule") {
        cli.schedule = value();
      } else if (flag == "--expect-failure") {
        cli.expect_failure = true;
      } else if (flag == "--require-complete") {
        cli.require_complete = true;
      } else {
        std::fprintf(stderr, "mph_verify: unknown option '%s'\n",
                     flag.c_str());
        return usage();
      }
    }

    const std::optional<Scenario> scenario =
        make_scenario(cli.scenario, cli.ranks);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "mph_verify: unknown scenario '%s'\n",
                   cli.scenario.c_str());
      return usage();
    }
    if (!cli.schedule.empty()) return run_replay(cli, *scenario);
    return run_explore(cli, *scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_verify: %s\n", e.what());
    return 2;
  }
}
