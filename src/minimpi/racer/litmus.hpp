// litmus.hpp — the mph_racer litmus registry.
//
// A litmus is a small, closed concurrent program whose every execution the
// engine can enumerate at pinned bounds: classic memory-model shapes
// (store buffering, message passing, coherence) that validate the checker
// itself, the repo's real lock-free structures (TraceRing, MetricsRegistry,
// the mailbox/job abort protocol) checked against their documented
// invariants, and deliberately seeded mutants the checker must catch.
//
// Every case carries pinned default bounds (RacerOptions) chosen so the
// exploration is exhaustive — `RacerReport::complete` is part of the CI
// gate, not just "no failure found".  Cases marked `expect_failure` encode
// known bugs: the gate requires the engine to FIND the failure (and the
// produced schedule to replay to the identical failure).
//
// Bodies are re-entrant: all state (including the structures under test)
// lives on the body's stack, so the engine can run the body once per
// explored execution.  They run only under an engine (run_litmus and
// replay_litmus); run_threads throws without one.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/racer/engine.hpp"

namespace minimpi::racer {

/// One registered litmus program.
struct LitmusCase {
  const char* name;     ///< stable id used by the CLI / CI / schedules
  const char* summary;  ///< one line for `mph_racer list`
  bool expect_failure;  ///< true: the checker must find a violation
  RacerOptions bounds;  ///< pinned defaults (exhaustive at these bounds)
  void (*body)();       ///< re-entrant program (state on its own stack)
};

/// All registered cases, in documentation order (classics, structures,
/// mutants).
[[nodiscard]] const std::vector<LitmusCase>& litmus_cases();

/// The case named `name`, or nullptr.
[[nodiscard]] const LitmusCase* find_litmus(std::string_view name);

/// Explore `c` with its pinned bounds (or `override_bounds` when non-null).
[[nodiscard]] RacerReport run_litmus(const LitmusCase& c,
                                     const RacerOptions* override_bounds =
                                         nullptr);

/// Replay `c` against a decision schedule (e.g. parsed from a dumped
/// counterexample trace).
[[nodiscard]] RacerReport replay_litmus(const LitmusCase& c,
                                        const std::vector<Decision>& schedule,
                                        const RacerOptions* override_bounds =
                                            nullptr);

/// Did the report meet the case's expectation?  Pass cases need ok();
/// expect_failure cases need the failure found AND the exploration not
/// voided by divergence.
[[nodiscard]] bool litmus_verdict(const LitmusCase& c, const RacerReport& r);

}  // namespace minimpi::racer
