// infer.hpp — propose a contract from a recorded trace.
//
// `mph infer <trace>` bootstraps contract adoption for an existing
// job: read one representative trace, reconstruct per-rank protocol op
// streams (conform.hpp's reader), and emit contract text that
// conform-checks against the very trace it came from.  Three
// generalizations keep the output readable instead of a flat transcript:
//
//   * runs of receives with one message per rank of a contiguous peer
//     range collapse into a ranged recv (`recv comp[lo..hi] tag T`), and
//     into a `gather { ... }` when several components contribute;
//   * repeated blocks (periods up to 4 ops) collapse into `loop N {...}`;
//   * ranks of a component with identical streams merge; divergent ranks
//     get `on lo..hi { ... }` blocks.
//
// Payloads are pinned as `bytes N` — a trace records sizes, not element
// types; promote to `type ...` by hand where stronger checking is wanted.
#pragma once

#include <string>
#include <string_view>

#include "src/proto/conform.hpp"

namespace mph::proto {

/// Infer contract text from a parsed trace.  The result is valid input
/// for parse_contract().  Collective spans that have no contract
/// equivalent (reduce, gatherv, ...) are dropped.
[[nodiscard]] std::string infer_contract_text(const ObservedTrace& trace,
                                              std::string_view name);

}  // namespace mph::proto
