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
//       are seeded bugs the checker must FIND; all others must pass
//       with the exploration complete.
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
//                          instead of exploring
//
// Exit status: 0 every litmus met its expectation, 1 an expectation was
// not met (a pass-case failed, a mutant went unfound, or an exploration
// was incomplete under --require-complete), 2 on usage errors, replay
// divergence, or internal errors.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/minimpi/racer/litmus.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace {

using minimpi::racer::Decision;
using minimpi::racer::LitmusCase;
using minimpi::racer::RacerOptions;
using minimpi::racer::RacerReport;
using mph::util::parse_flag_uint;

struct Args {
  std::string target;
  RacerOptions overrides;
  bool have_overrides = false;
  bool require_complete = false;
  bool allow_incomplete = false;
  std::string dump_trace;
  std::string schedule;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s <litmus>|all [--max-execs N] [--budget-ms N]\n"
               "           [--preemptions N] [--max-steps N]\n"
               "           [--require-complete | --allow-incomplete]\n"
               "           [--dump-trace FILE]\n"
               "           [--schedule FILE]\n",
               argv0, argv0);
  std::exit(2);
}

/// Parse a trace dumped by --dump-trace (trace_to_json): the decision
/// stack plus the litmus name it belongs to.
std::pair<std::string, std::vector<Decision>> load_schedule(
    const std::string& path) {
  const std::optional<std::string> text = mph::util::read_file(path);
  if (!text) throw std::runtime_error("cannot open schedule file: " + path);
  const mph::util::JsonValue doc = mph::util::JsonValue::parse(*text);
  const mph::util::JsonValue* kind = doc.find("kind");
  if (kind == nullptr || kind->as_string() != "mph_racer_trace") {
    throw std::runtime_error(path + ": not an mph_racer_trace document");
  }
  std::vector<Decision> schedule;
  for (const auto& d : doc.at("decisions").items()) {
    Decision dec;
    const std::string& k = d.at("kind").as_string();
    if (k.size() != 1 || (k[0] != 't' && k[0] != 'r' && k[0] != 'c')) {
      throw std::runtime_error(path + ": bad decision kind '" + k + "'");
    }
    dec.kind = k[0];
    dec.chosen = static_cast<int>(d.at("chosen").as_int());
    dec.options = static_cast<int>(d.at("options").as_int());
    dec.pruned = static_cast<int>(d.at("pruned").as_int());
    if (const auto* note = d.find("note")) dec.note = note->as_string();
    schedule.push_back(std::move(dec));
  }
  return {doc.at("litmus").as_string(), std::move(schedule)};
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
/// counterexample across the run is dumped to `args.dump_trace` (once).
bool run_one(const LitmusCase& c, const Args& args, bool* trace_dumped) {
  const RacerOptions* overrides =
      args.have_overrides ? &args.overrides : nullptr;
  const RacerReport report = minimpi::racer::run_litmus(c, overrides);
  std::printf("%s\n", report.summary().c_str());
  bool ok = minimpi::racer::litmus_verdict(c, report);
  // Completeness is required of pass-cases; an expect_failure exploration
  // stops at its first counterexample, which is the point.
  if (args.require_complete && !c.expect_failure && !report.complete) {
    ok = false;
  }
  // Budgeted-sweep mode: a pass-case truncated by its budget without a
  // violation (or divergence) still counts — the summary line carries the
  // "explored N of >= M" coverage.  Mutants must still be FOUND.
  if (args.allow_incomplete && !c.expect_failure && !report.failed &&
      report.divergence.empty()) {
    ok = true;
  }
  if (report.failed && !args.dump_trace.empty() && !*trace_dumped) {
    mph::util::write_file(args.dump_trace,
                          minimpi::racer::trace_to_json(report));
    std::printf("  counterexample trace written to %s\n",
                args.dump_trace.c_str());
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

int replay_from_file(const Args& args) {
  const auto [litmus, schedule] = load_schedule(args.schedule);
  const LitmusCase* c = minimpi::racer::find_litmus(litmus);
  if (c == nullptr) {
    std::fprintf(stderr, "mph_racer: trace litmus '%s' is not registered\n",
                 litmus.c_str());
    return 2;
  }
  if (args.target != "all" && args.target != litmus) {
    std::fprintf(stderr,
                 "mph_racer: trace belongs to litmus '%s', not '%s'\n",
                 litmus.c_str(), args.target.c_str());
    return 2;
  }
  const RacerOptions* overrides =
      args.have_overrides ? &args.overrides : nullptr;
  const RacerReport report =
      minimpi::racer::replay_litmus(*c, schedule, overrides);
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
  if (argc < 2) usage(argv[0]);
  Args args;
  args.target = argv[1];
  if (args.target == "list") {
    if (argc != 2) usage(argv[0]);
    return list_cases();
  }

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--max-execs") {
        args.overrides.max_executions = parse_flag_uint(arg, value());
        args.have_overrides = true;
      } else if (arg == "--budget-ms") {
        args.overrides.budget_ms = parse_flag_uint(arg, value());
        args.have_overrides = true;
      } else if (arg == "--preemptions") {
        args.overrides.preemption_bound =
            static_cast<int>(parse_flag_uint(arg, value(), 0, INT_MAX));
        args.have_overrides = true;
      } else if (arg == "--max-steps") {
        args.overrides.max_steps = parse_flag_uint(arg, value());
        args.have_overrides = true;
      } else if (arg == "--require-complete") {
        args.require_complete = true;
      } else if (arg == "--allow-incomplete") {
        args.allow_incomplete = true;
      } else if (arg == "--dump-trace") {
        args.dump_trace = value();
      } else if (arg == "--schedule") {
        args.schedule = value();
      } else {
        usage(argv[0]);
      }
    }

    if (!args.schedule.empty()) return replay_from_file(args);

    std::vector<const LitmusCase*> targets;
    if (args.target == "all") {
      for (const LitmusCase& c : minimpi::racer::litmus_cases()) {
        targets.push_back(&c);
      }
    } else {
      const LitmusCase* c = minimpi::racer::find_litmus(args.target);
      if (c == nullptr) {
        std::fprintf(stderr,
                     "mph_racer: unknown litmus '%s' (try 'list')\n",
                     args.target.c_str());
        return 2;
      }
      targets.push_back(c);
    }

    bool all_ok = true;
    bool trace_dumped = false;
    for (const LitmusCase* c : targets) {
      all_ok = run_one(*c, args, &trace_dumped) && all_ok;
    }
    std::printf("mph_racer: %zu litmus case(s), %s\n", targets.size(),
                all_ok ? "all expectations met" : "EXPECTATIONS NOT MET");
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_racer: %s\n", e.what());
    return 2;
  }
}
