// mph — the command-line driver for MPH deployments: `mph <verb> ...`.
//
// One verb table drives dispatch and the usage text; one flag reader
// (Args) parses every verb's command line; one exit rule (Outcome) maps
// every verb's result to 0 clean / 1 found something / 2 could not run.
//
// Registry files:
//   validate           parse and validate a registration file, print it
//   plan               dry-run the handshake for a command file: the exact
//                      Directory the job would build, or its setup error
//   generate-ensemble  emit a Multi_Instance registration file
//   check              static lint of registration files (overlapping or
//                      unreachable processors, bad contract= pins) and
//                      contracts (*.mphc: send/recv, tag/type and
//                      collective agreement, deadlock-freedom); the file
//                      extension picks the checker.  --expect-findings
//                      inverts success for the whole call (CI gates on
//                      seeded-broken files); --dump-graph writes the first
//                      contract's happens-before graph as Graphviz DOT
// Traces (TraceReport::to_chrome_json exports):
//   trace              traffic matrix, per-context counts, blocked ranks
//   report             critical-path bottleneck report with what-ifs
//   annotate           re-emit a trace with the critical path overlaid
//   record             run a mode scenario traced and write its trace
//   conform            check a recorded trace against a contract
//   infer              propose contract text from a recorded trace
// Running jobs:
//   top                live view of one monitored job
//   watch              metrics and health of several jobs in one console
// Code:
//   lint               atomics lint for the lock-free layer
//   verify             explore a scenario's wildcard-matching schedules
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tools/cli.hpp"

namespace {

using mph_tools::Args;
using mph_tools::Outcome;

/// One row of the verb table: its usage synopsis, the flags it declares
/// (see Args), its positional-argument bounds and its body.
struct Verb {
  std::string_view name;
  std::string_view synopsis;
  std::vector<std::string_view> flags;
  std::size_t min_args;
  std::size_t max_args;
  Outcome (*run)(const Args&);
};

const std::vector<Verb>& verbs() {
  using namespace mph_tools;
  static const std::vector<Verb> table = {
      {"validate", "<file>", {}, 1, 1, cmd_validate},
      {"plan", "<file> <names[,names]:<nprocs> | I:<prefix>:<nprocs>>...", {},
       2, SIZE_MAX, cmd_plan},
      {"generate-ensemble", "<prefix> <instances> <ranks_each>", {}, 3, 3,
       cmd_generate_ensemble},
      {"check",
       "<processors_map.in | contract.mphc>... [--dump-graph FILE]\n"
       "        [--expect-findings]",
       {"--dump-graph=", "--expect-findings"}, 1, SIZE_MAX, cmd_check},
      {"trace", "<trace.json>", {}, 1, 1, cmd_trace},
      {"report",
       "<trace.json> [--top=N] [--what-if=<component|rank:R>[:<pct>]]...",
       {"--top=", "--what-if="}, 1, 1, cmd_report},
      {"annotate", "<trace.json> [-o <out.json>]", {"-o="}, 1, 1,
       cmd_annotate},
      {"record", "<scse|scme|mcse|mcme|mime> [--ranks N] -o FILE",
       {"--ranks=", "-o="}, 1, 1, cmd_record},
      {"conform", "<trace.json> <contract.mphc>", {}, 2, 2, cmd_conform},
      {"infer", "<trace.json> [--name NAME]", {"--name="}, 1, 1, cmd_infer},
      {"top", "<mph_monitor.sock | mph_metrics.jsonl> [--once] [--interval=ms]",
       {"--once", "--interval="}, 1, 1, cmd_top},
      {"watch",
       "<sock | metrics.jsonl | health.jsonl>... [--once] [--interval=ms]",
       {"--once", "--interval="}, 1, SIZE_MAX, cmd_watch},
      {"lint", "[<dir>]", {}, 0, 1, cmd_lint},
      {"verify",
       "<scenario> [--ranks N] [--max-schedules N] [--budget-ms N]\n"
       "        [--seed N] [--dump-trace FILE] [--schedule FILE]\n"
       "        [--expect-failure] [--require-complete]\n"
       "        scenarios: scse scme mcse mcme mime wildcard-race "
       "order-deadlock",
       {"--ranks=", "--max-schedules=", "--budget-ms=", "--seed=",
        "--dump-trace=", "--schedule=", "--expect-failure",
        "--require-complete"},
       1, 1, cmd_verify},
  };
  return table;
}

int usage() {
  std::fprintf(stderr, "usage: mph <verb> ...\n");
  for (const Verb& verb : verbs()) {
    std::fprintf(stderr, "  mph %s %s\n", verb.name.data(),
                 verb.synopsis.data());
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const auto verb = std::find_if(verbs().begin(), verbs().end(),
                                 [&](const Verb& v) { return v.name == name; });
  if (verb == verbs().end()) return usage();
  try {
    const Args args({argv + 2, argv + argc}, verb->flags);
    if (args.positional.size() < verb->min_args ||
        args.positional.size() > verb->max_args) {
      throw std::invalid_argument("wrong number of arguments");
    }
    return static_cast<int>(verb->run(args));
  } catch (const std::invalid_argument& e) {  // a usage or flag error
    std::fprintf(stderr, "mph %s: %s\nusage: mph %s %s\n", argv[1], e.what(),
                 argv[1], verb->synopsis.data());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph %s: %s\n", argv[1], e.what());
  }
  return 2;
}
