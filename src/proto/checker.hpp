// checker.hpp — launch-free static verification of a contract.
//
// With no job execution at all, check() projects the contract onto every
// rank (choice branches enumerated component-wide, loops unrolled, `on`
// ranges applied) and verifies:
//
//   * pairwise send/recv compatibility — every send finds a receive slot
//     on its destination (exact-source slots first, then `any` wildcards,
//     FIFO per (src, dst, tag) channel, matching minimpi's per-channel
//     ordering guarantee), and every slot finds a send;
//   * tag/type agreement — matched pairs with typed payloads must agree
//     under minimpi::TypeSig::matches (the predicate mpicheck applies to
//     live envelopes); pinned element counts / byte totals must be equal;
//   * collective consistency — every member of a scope must execute the
//     same collective sequence (kind, root, element type, slot by slot);
//   * deadlock-freedom — a happens-before graph over all projected ops
//     (program-order edges per rank, send→receive-group match edges,
//     shared per-slot collective nodes) must be acyclic.  Cycles are
//     reported the way mpicheck reports live deadlocks — every
//     component[rank] op edge named — plus contract file/line provenance:
//
//       wait-for cycle across 2 rank(s): solo[0] recv<-solo[1] (tag=7)
//       at broken.mphc:8 ; solo[1] recv<-solo[0] (tag=8) at broken.mphc:12
//
// Sends are modelled as buffered (non-blocking), matching minimpi: only
// receive and collective dependencies can participate in a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/proto/contract.hpp"

namespace mph::proto {

struct ProtoCheckOptions {
  /// Cap on enumerated either/or branch assignments (cartesian across
  /// sites).  Exceeding it checks the first N and notes the truncation.
  int max_choice_combos = 64;
  /// Cap on the unrolled per-rank op count (runaway loop nesting).
  std::uint64_t max_ops_per_rank = 100000;
};

/// Findings, one human-readable line each, grouped by class.  Every line
/// carries "at origin:line" provenance.
struct ProtoReport {
  std::vector<std::string> orphan_sends;     ///< send with no receive slot
  std::vector<std::string> unmatched_recvs;  ///< slot with no send
  std::vector<std::string> type_mismatches;  ///< TypeSig/count/bytes clash
  std::vector<std::string> collective_errors;
  std::vector<std::string> deadlocks;        ///< wait-for cycles
  std::vector<std::string> structural;       ///< caps exceeded, bad scopes

  [[nodiscard]] bool clean() const noexcept {
    return orphan_sends.empty() && unmatched_recvs.empty() &&
           type_mismatches.empty() && collective_errors.empty() &&
           deadlocks.empty() && structural.empty();
  }
  [[nodiscard]] std::size_t total() const noexcept {
    return orphan_sends.size() + unmatched_recvs.size() +
           type_mismatches.size() + collective_errors.size() +
           deadlocks.size() + structural.size();
  }
  /// All findings in report order, one per line.
  [[nodiscard]] std::string to_string() const;
};

/// Statically check a parsed contract.  Never launches anything.
[[nodiscard]] ProtoReport check(const Contract& contract,
                                const ProtoCheckOptions& options = {});

/// The happens-before graph for the first choice assignment, as Graphviz
/// DOT (program-order edges solid, match edges dashed, collective slots as
/// shared boxes) — `mph check --dump-graph`.
[[nodiscard]] std::string dump_causality_dot(const Contract& contract,
                                             const ProtoCheckOptions& options =
                                                 {});

}  // namespace mph::proto
