// mph_racer — exhaustive weak-memory model checking for the repo's
// lock-free layer (src/minimpi/racer/).
//
// Usage:
//   mph_racer list
//       Print every registered litmus with its summary, pinned bounds,
//       and expectation.
//
//   mph_racer <litmus>|all [options]
//       Explore the named litmus (or every registered one) over the
//       modeled C++11 memory-model fragment: every thread interleaving
//       within the preemption bound crossed with every allowed
//       reads-from / CAS outcome.  Cases registered as expect_failure
//       are seeded or known bugs the checker must FIND; all others must
//       pass with the exploration complete.
//
//   Options:
//       --max-execs N      execution budget (0 = unlimited; default: the
//                          litmus's pinned bound)
//       --budget-ms N      wall-clock budget (default 0 = unlimited)
//       --preemptions N    context-switch bound (reads-from branching is
//                          never bounded; default: pinned bound)
//       --max-steps N      per-execution atomic-op cap (spin-loop trap)
//       --require-complete exit 1 unless every exploration exhausted its
//                          frontier (the CI gate always sets this)
//       --allow-incomplete budgeted-sweep mode: a truncated exploration
//                          that found no violation still passes (mutants
//                          must still be found); "explored N of >= M" in
//                          the report says how much was covered
//       --dump-trace FILE  write the first counterexample as a JSON
//                          decision trace (replayable with --schedule)
//       --schedule FILE    replay a dumped trace against its litmus
//                          instead of exploring: one execution with every
//                          recorded decision forced
//
//   Flags are read by the same reader as `mph` (tools/cli.cpp), so
//   `--flag=value` works too.  Bounds given on the command line replace
//   the litmus's pinned bounds as a whole.
//
// Exit status: 0 every litmus met its expectation, 1 an expectation was
// not met (a pass-case failed, a mutant went unfound, or an exploration
// was incomplete under --require-complete), 2 on usage errors, a trace
// the strict reader rejects, replay divergence, or internal errors.
#include <climits>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/minimpi/racer/litmus.hpp"
#include "src/util/strings.hpp"
#include "tools/cli.hpp"

namespace {

using minimpi::racer::LitmusCase;
using minimpi::racer::RacerOptions;
using minimpi::racer::RacerReport;
using mph_tools::Args;

constexpr const char* kUsage =
    "usage: mph_racer list\n"
    "       mph_racer <litmus>|all [--max-execs N] [--budget-ms N]\n"
    "           [--preemptions N] [--max-steps N]\n"
    "           [--require-complete | --allow-incomplete]\n"
    "           [--dump-trace FILE]\n"
    "           [--schedule FILE]\n";

/// The bounds given on the command line (RacerOptions defaults for the
/// rest), or nullopt to keep each litmus's pinned bounds.
std::optional<RacerOptions> bound_overrides(const Args& args) {
  if (!args.has("--max-execs") && !args.has("--budget-ms") &&
      !args.has("--preemptions") && !args.has("--max-steps")) {
    return std::nullopt;
  }
  RacerOptions o;
  o.max_executions = args.number("--max-execs", o.max_executions);
  o.budget_ms = args.number("--budget-ms", o.budget_ms);
  o.preemption_bound = static_cast<int>(
      args.number("--preemptions", o.preemption_bound, 0, INT_MAX));
  o.max_steps = args.number("--max-steps", o.max_steps);
  return o;
}

int list_cases() {
  for (const LitmusCase& c : minimpi::racer::litmus_cases()) {
    std::printf("%-26s %s%s\n    bounds: max-execs %llu, preemptions %d\n",
                c.name, c.summary,
                c.expect_failure ? "  [expect-failure]" : "",
                static_cast<unsigned long long>(c.bounds.max_executions),
                c.bounds.preemption_bound);
  }
  return 0;
}

/// Explore one case; returns true when it met its expectation.  The first
/// counterexample across the run is dumped to --dump-trace (once).
bool run_one(const LitmusCase& c, const Args& args,
             const RacerOptions* overrides, bool* trace_dumped) {
  const RacerReport report = minimpi::racer::run_litmus(c, overrides);
  std::printf("%s\n", report.summary().c_str());
  bool ok = minimpi::racer::litmus_verdict(c, report);
  // Completeness is required of pass-cases; an expect_failure exploration
  // stops at its first counterexample, which is the point.
  if (args.has("--require-complete") && !c.expect_failure &&
      !report.complete) {
    ok = false;
  }
  // Budgeted-sweep mode: a pass-case truncated by its budget without a
  // violation (or divergence) still counts — the summary line carries the
  // "explored N of >= M" coverage.  Mutants must still be FOUND.
  if (args.has("--allow-incomplete") && !c.expect_failure && !report.failed &&
      report.divergence.empty()) {
    ok = true;
  }
  const std::string dump = args.value("--dump-trace");
  if (report.failed && !dump.empty() && !*trace_dumped) {
    mph::util::write_file(dump, minimpi::racer::write_racer_trace(report));
    std::printf("  counterexample trace written to %s\n", dump.c_str());
    *trace_dumped = true;
  }
  if (!ok) {
    std::printf("  EXPECTATION NOT MET: %s\n",
                c.expect_failure
                    ? "seeded bug was not found (or exploration diverged)"
                    : (report.failed ? "invariant violated"
                                     : "exploration incomplete"));
  }
  return ok;
}

int replay_from_file(const Args& args, const std::string& target,
                     const RacerOptions* overrides) {
  const minimpi::racer::RacerTrace trace = minimpi::racer::read_racer_trace(
      mph_tools::read_input(args.value("--schedule")));
  const LitmusCase* c = minimpi::racer::find_litmus(trace.litmus);
  if (c == nullptr) {
    throw std::runtime_error("trace litmus '" + trace.litmus +
                             "' is not registered");
  }
  if (target != "all" && target != trace.litmus) {
    throw std::runtime_error("trace belongs to litmus '" + trace.litmus +
                             "', not '" + target + "'");
  }
  const RacerReport report =
      minimpi::racer::replay_litmus(*c, trace.decisions, overrides);
  std::printf("%s\n", report.summary().c_str());
  for (const auto& ev : report.failure_events) {
    std::printf("  t%d  %s\n", ev.tid, ev.text.c_str());
  }
  if (!report.divergence.empty()) return 2;
  // A replayed counterexample is expected to reproduce the failure.
  return report.failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args({argv + 1, argv + argc},
                    {"--max-execs=", "--budget-ms=", "--preemptions=",
                     "--max-steps=", "--require-complete",
                     "--allow-incomplete", "--dump-trace=", "--schedule="});
    if (args.positional.size() != 1) {
      throw std::invalid_argument("expected 'list', 'all' or one litmus");
    }
    const std::string& target = args.positional[0];
    if (target == "list") {
      if (argc != 2) throw std::invalid_argument("list takes no options");
      return list_cases();
    }
    const std::optional<RacerOptions> bounds = bound_overrides(args);
    const RacerOptions* overrides = bounds ? &*bounds : nullptr;
    if (args.has("--schedule")) {
      return replay_from_file(args, target, overrides);
    }

    std::vector<const LitmusCase*> targets;
    if (target == "all") {
      for (const LitmusCase& c : minimpi::racer::litmus_cases()) {
        targets.push_back(&c);
      }
    } else {
      const LitmusCase* c = minimpi::racer::find_litmus(target);
      if (c == nullptr) {
        throw std::runtime_error("unknown litmus '" + target +
                                 "' (try 'list')");
      }
      targets.push_back(c);
    }

    bool all_ok = true;
    bool trace_dumped = false;
    for (const LitmusCase* c : targets) {
      all_ok = run_one(*c, args, overrides, &trace_dumped) && all_ok;
    }
    std::printf("mph_racer: %zu litmus case(s), %s\n", targets.size(),
                all_ok ? "all expectations met" : "EXPECTATIONS NOT MET");
    return all_ok ? 0 : 1;
  } catch (const std::invalid_argument& e) {  // a usage or flag error
    std::fprintf(stderr, "mph_racer: %s\n%s", e.what(), kUsage);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_racer: %s\n", e.what());
  }
  return 2;
}
