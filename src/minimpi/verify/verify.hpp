// verify.hpp — mph_verify: systematic schedule exploration (stateless
// model checking) for minimpi/MPH jobs.
//
// verify() runs a scenario repeatedly under a VerifyScheduler and feeds
// its wildcard match decisions to the shared exploration core
// (util::DecisionTree): depth-first with replay-from-prefix, each run
// forcing the decisions of an explored prefix and taking the first
// untried alternative at the deepest branch point.  replay() is the same
// run with a whole dumped trace forced.  Verify itself keeps only what is
// specific to messages: the quiescence fence and wildcard candidates
// (verify_scheduler.hpp), the mpicheck oracle and the vector-clock race
// classification.  Because the independent-channel reduction already
// collapses everything except wildcard source choices (see DESIGN.md
// §10), exhausting this tree covers every reachable matching of the job
// on the given configuration — which is what turns "the five MPH
// execution modes pass once" into "the five modes are verified over their
// matching space on small configs".
//
// Budgets are explicit and truncation is never silent: a run that stops
// early reports "explored N of >= M schedules" with M a sound lower bound
// on the frontier still open.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/minimpi/verify/trace.hpp"
#include "src/minimpi/verify/verify_scheduler.hpp"

namespace minimpi::verify {

/// The scenario under verification: runs one job with the given options
/// (the engine injects scheduler/seed/checkers) and returns its report.
/// Typically wraps run_mpmd/run_spmd or an MPH harness.
using JobRunner = std::function<JobReport(const JobOptions&)>;

struct VerifyOptions {
  /// Stop after this many schedules (0 = unlimited).  Reported as
  /// schedule_budget_exhausted when hit with branches still open.
  std::uint64_t max_schedules = 10000;

  /// Wall-clock budget for the whole exploration (0 = unlimited).
  std::chrono::milliseconds budget{0};

  /// Job seed for every schedule (must be nonzero so no fresh entropy is
  /// drawn); also recorded in each trace for byte-identical replays.
  std::uint64_t seed = 1;

  /// Base job options.  The engine overwrites `scheduler` and `seed`, and
  /// force-enables the deadlock/type/collective checkers; everything else
  /// (timeouts, fault plan, leak audit) is passed through.
  JobOptions job;

  /// Stop exploring at the first failing schedule (default) or keep going
  /// and collect every distinct failure within budget.
  bool stop_on_failure = true;

  /// Maps world ranks to component names in reports (optional).
  std::function<std::string(rank_t)> label;
};

/// One failing schedule, with the decision trace that reproduces it.
struct ScheduleFailure {
  std::uint64_t schedule_index = 0;  ///< 0-based order of discovery
  std::string reason;                ///< abort/check/failure summary
  Trace trace;

  [[nodiscard]] std::string to_string(
      const std::function<std::string(rank_t)>& label = {}) const;
};

struct VerifyReport {
  std::uint64_t schedules_run = 0;
  /// Sound lower bound on the total schedule count: schedules_run plus
  /// every untried alternative left on the DFS stack at exit.  Equals
  /// schedules_run exactly when complete.
  std::uint64_t frontier_lower_bound = 0;
  std::uint64_t max_decision_depth = 0;  ///< deepest trace seen
  bool complete = false;                 ///< the whole tree was explored
  bool schedule_budget_exhausted = false;
  bool time_budget_exhausted = false;
  /// Nonempty when a prefix replay observed different candidates than the
  /// schedule it was replaying — nondeterminism outside the wildcard
  /// decisions (e.g. unseeded randomness).  Exploration stops on this.
  std::string divergence;
  std::vector<ScheduleFailure> failures;
  std::vector<RaceRecord> races;  ///< distinct wildcard races observed

  /// No failing schedule, no divergence.
  [[nodiscard]] bool ok() const noexcept {
    return failures.empty() && divergence.empty();
  }

  [[nodiscard]] std::string to_string(
      const std::function<std::string(rank_t)>& label = {}) const;
};

/// Explore the scenario's schedule space.  Arms the fresh-entropy ban for
/// the duration (unseeded randomness inside the scenario throws).
[[nodiscard]] VerifyReport verify(const JobRunner& run,
                                  VerifyOptions options = {});

/// Result of replaying one dumped trace.
struct ReplayResult {
  JobReport report;
  Trace observed;          ///< the decisions the replay actually took
  std::string divergence;  ///< non-empty: the run left the trace
  std::string failure;     ///< why the replayed run failed; empty: passed
};

/// Re-run the scenario forcing the decisions of `trace` (its seed becomes
/// the job seed).  A faithful replay reproduces the recorded failure; a
/// run that meets other candidates, or makes more or fewer fenced
/// decisions than the trace holds, diverged.
[[nodiscard]] ReplayResult replay(const JobRunner& run, const Trace& trace,
                                  JobOptions job = {});

}  // namespace minimpi::verify
