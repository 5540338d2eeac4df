// `mph verify` — systematic schedule exploration (stateless model
// checking) and wildcard-race detection for minimpi/MPH jobs.
//
// Explores a scenario's wildcard-matching schedule space with the
// verify() engine (src/minimpi/verify/), running mpicheck's checkers on
// every schedule, and reports races / failing schedules.
//
// Scenarios: the five MPH execution modes of tools/mode_scenarios.hpp
// (post-handshake bodies that exchange messages through ANY_SOURCE
// receives) plus two seeded bugs:
//   wildcard-race   rank 0 assumes its first wildcard receive is rank 1's
//                   message; a send timing makes that true in ordinary
//                   runs, but a schedule exists where rank 2 matches first
//   order-deadlock  the coupler expects a second message from whichever
//                   sender its wildcard matched first; only one sender has
//                   a second message, the other blocks on an ack the
//                   coupler sends too late — an order-dependent deadlock
//                   mpicheck reports as a cycle on the bad schedule
//
// Options:
//   --ranks N          scenario scale (scse: total ranks, default 3;
//                      others: ranks per model component, default 1)
//   --max-schedules N  schedule budget (default 10000, 0 = unlimited)
//   --budget-ms N      wall-clock budget (default 0 = unlimited)
//   --seed N           job seed recorded in every trace (default 1)
//   --dump-trace FILE  write the first failing schedule's decision trace
//                      as JSON (replayable with --schedule)
//   --schedule FILE    replay a dumped trace instead of exploring
//   --expect-failure   invert success: found (1) unless a failing schedule
//                      was found (exploration) or reproduced (replay)
//   --require-complete found (1) unless the whole tree was explored
//
// A replay that diverges from its trace cannot run (exit 2).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/minimpi/launcher.hpp"
#include "src/minimpi/verify/verify.hpp"
#include "src/mph/mph.hpp"
#include "src/util/strings.hpp"
#include "tools/cli.hpp"
#include "tools/mode_scenarios.hpp"

namespace mph_tools {

namespace {

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
  return make_mode_scenario(name, ranks);
}

/// The verify() JobRunner for a scenario: one MPMD launch per schedule.
minimpi::verify::JobRunner runner_for(const Scenario& scenario) {
  return [&scenario](const minimpi::JobOptions& options) {
    return minimpi::run_mpmd(make_exec_specs(scenario), options);
  };
}

minimpi::JobOptions scenario_job_options() {
  minimpi::JobOptions options;
  // Bound every schedule: a stuck state the engine or mpicheck somehow
  // misses must still terminate the exploration run.
  options.recv_timeout = std::chrono::seconds(20);
  return options;
}

Outcome replay(const Args& args, const Scenario& scenario) {
  const std::string path = args.value("--schedule");
  const minimpi::verify::Trace trace =
      minimpi::verify::Trace::from_json(read_input(path));
  std::printf("replaying %zu recorded decision(s) from %s (seed %llu)\n",
              trace.decisions.size(), path.c_str(),
              static_cast<unsigned long long>(trace.seed));
  const minimpi::verify::ReplayResult result = minimpi::verify::replay(
      runner_for(scenario), trace, scenario_job_options());
  std::printf("%s\n", result.observed.to_string(label_fn(scenario)).c_str());
  if (!result.divergence.empty()) {
    throw std::runtime_error("replay diverged: " + result.divergence);
  }
  const bool failed = !result.failure.empty();
  if (failed) {
    std::printf("replay reproduced the failure: %s\n", result.failure.c_str());
  } else {
    std::printf("replay completed without failure\n");
  }
  return failed != args.has("--expect-failure") ? Outcome::found
                                                : Outcome::clean;
}

Outcome explore(const Args& args, const Scenario& scenario) {
  minimpi::verify::VerifyOptions options;
  options.max_schedules = args.number("--max-schedules", 10000);
  options.budget = std::chrono::milliseconds(
      args.number("--budget-ms", 0, 0, INT64_MAX));
  options.seed = args.number("--seed", 1);
  options.job = scenario_job_options();
  options.label = label_fn(scenario);
  // When the caller expects a bug, keep the first failing schedule (its
  // trace is the artifact); otherwise stopping early is still right — one
  // counterexample refutes the configuration.
  options.stop_on_failure = true;

  const minimpi::verify::VerifyReport report =
      minimpi::verify::verify(runner_for(scenario), options);
  std::printf("%s\n", report.to_string(options.label).c_str());

  const std::string dump = args.value("--dump-trace");
  if (!dump.empty()) {
    if (report.failures.empty()) {
      std::fprintf(stderr,
                   "mph verify: no failing schedule; nothing dumped to %s\n",
                   dump.c_str());
    } else {
      mph::util::write_file(dump, report.failures.front().trace.to_json());
      std::printf("failing trace written to %s\n", dump.c_str());
    }
  }

  if (!report.divergence.empty()) {
    throw std::runtime_error("exploration diverged: " + report.divergence);
  }
  if (args.has("--require-complete") && !report.complete) {
    std::fprintf(stderr,
                 "mph verify: exploration incomplete (--require-complete)\n");
    return Outcome::found;
  }
  const bool failed = !report.failures.empty();
  if (args.has("--expect-failure") && !failed) {
    std::fprintf(stderr,
                 "mph verify: expected a failing schedule, found none\n");
  }
  return failed != args.has("--expect-failure") ? Outcome::found
                                                : Outcome::clean;
}

}  // namespace

Outcome cmd_verify(const Args& args) {
  const std::string& name = args.positional[0];
  const std::optional<Scenario> scenario =
      make_scenario(name, static_cast<int>(args.number("--ranks", 0, 1, 64)));
  if (!scenario) throw std::invalid_argument("unknown scenario '" + name + "'");
  if (args.has("--schedule")) return replay(args, *scenario);
  return explore(args, *scenario);
}

}  // namespace mph_tools
