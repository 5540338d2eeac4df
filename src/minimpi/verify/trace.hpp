// trace.hpp — the decision-trace format of mph_verify.
//
// A schedule explored by the verify engine is fully described by the
// ordered list of wildcard match decisions it made: step k of the trace
// says "rank R's wildcard receive/probe (context, tag) matched sender S,
// chosen from this candidate set".  Dumping a failing run's trace and
// replaying it later (mph verify --schedule trace.json) reproduces the
// exact same matching, because wildcard choices are the *only*
// nondeterminism minimpi jobs have under a verifying scheduler: exact-
// source receives are deterministic (each sender is one thread delivering
// in program order), collectives are built on exact-source traffic, and
// all job randomness flows from the recorded seed.
//
// The on-disk format is the counterexample envelope both explorers share
// (util/decision_tree.hpp), written and read back through util::JsonValue:
//
//   {
//     "kind": "mph_verify_trace",
//     "version": 2,
//     "seed": 42,
//     "decisions": [
//       {"step": 0, "rank": 2, "op": "recv", "context": 0, "tag": 7,
//        "chose": 1, "candidates": [0, 1], "immediate": false},
//       ...
//     ]
//   }
//
// A version 1 dump (no "kind") is rejected by its version; re-dump it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/minimpi/types.hpp"
#include "src/util/decision_tree.hpp"

namespace minimpi::verify {

/// One wildcard match decision.
struct Decision {
  rank_t rank = -1;        ///< owner of the wildcard receive/probe
  std::string op = "recv"; ///< "recv" / "probe" / "iprobe"
  context_t context = kWorldContext;
  tag_t tag = any_tag;
  rank_t chose = -1;       ///< the sender the wildcard was resolved to
  /// Every sender that was matchable at decision time (ascending).  The
  /// exploration tree branches over exactly this set.
  std::vector<rank_t> candidates;
  /// True for decisions taken without a quiescence fence (a nonblocking
  /// wildcard iprobe that found several queued candidates).  These are
  /// recorded and replayed but not exhaustively explored.
  bool immediate = false;

  [[nodiscard]] bool operator==(const Decision&) const = default;

  /// The exploration tree's view of a fenced decision: the index of
  /// `chose` (candidates.size() when absent) among the candidate set a
  /// replay must see again.
  [[nodiscard]] mph::util::Branch branch() const;
};

/// A complete schedule: the job seed plus every decision, in order.
struct Trace {
  std::uint64_t seed = 0;
  std::vector<Decision> decisions;

  [[nodiscard]] bool operator==(const Trace&) const = default;

  /// Serialize to the JSON document described above.
  [[nodiscard]] std::string to_json() const;

  /// Parse a dumped trace.  Throws Error(Errc::invalid_argument) on
  /// malformed input: JSON syntax errors name their line and column, and
  /// unknown keys, another kind or version and out-of-range integers are
  /// rejected by name.
  [[nodiscard]] static Trace from_json(const std::string& text);

  /// Human-readable rendering, one line per step:
  ///   #0 ocean[2] recv <- atmosphere[1] (context=0, tag=7) candidates={0,1}
  /// `label` maps a world rank to its component name (may be empty/null).
  [[nodiscard]] std::string to_string(
      const std::function<std::string(rank_t)>& label = {}) const;
};

/// "<label>[R]" for reports, "rank[R]" when `label` names nothing.
[[nodiscard]] std::string rank_name(
    const std::function<std::string(rank_t)>& label, rank_t rank);

/// A tag for reports: "*" for any_tag.
[[nodiscard]] std::string tag_name(tag_t tag);

}  // namespace minimpi::verify
