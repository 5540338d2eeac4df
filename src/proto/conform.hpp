// conform.hpp — check a recorded mph_trace against a contract.
//
// Input is the Chrome trace-event JSON written by mph_trace / mph_verify
// --trace (TraceReport::to_chrome_json; schema documented in DESIGN.md
// §"Trace event schema").  read_trace_ops() loads it with the same reader
// mph_prof and `mph trace` use (minimpi::prof::load_chrome_trace)
// and reduces it to the protocol-level op stream per rank:
//
//   * track names ("component:local" thread_name metadata) recover the
//     component/local-rank identity of each world rank;
//   * events inside phase spans (handshake, comm_setup, ...) are dropped —
//     contracts describe post-handshake model traffic only;
//   * p2p events inside collective spans are dropped (collectives
//     implement themselves with traced sends/receives; the contract sees
//     one collective step);
//   * bookkeeping events (post_recv, recv_match, control_send, blocked)
//     are dropped; "recv" and "wait" spans both count as one receive.
//
// conform() then replays each rank's observed ops against its projected
// contract order (same expansion the static checker uses), trying every
// either/or branch assignment, and reports the first divergence per rank
// with the event index and the contract op (file/line) it failed against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/proto/contract.hpp"

namespace mph::proto {

/// One protocol-level event recovered from a trace.
struct ObservedOp {
  enum class Kind { send, recv, collective };
  Kind kind = Kind::send;
  int peer = -1;  ///< world rank: send destination / recv matched source
  int tag = -1;
  std::uint64_t bytes = 0;
  std::string coll;  ///< collective span name ("barrier", "bcast", ...)

  [[nodiscard]] std::string to_string() const;
};

struct ObservedRank {
  int world_rank = 0;
  std::string component;  ///< from the track name
  int local = 0;
  std::vector<ObservedOp> ops;  ///< in per-rank execution order
};

struct ObservedTrace {
  std::vector<ObservedRank> ranks;  ///< sorted by world_rank

  [[nodiscard]] const ObservedRank* by_world(int rank) const noexcept;
};

/// Parse a Chrome trace-event document into per-rank protocol ops.
/// Throws MphError when the document is not a trace export.
[[nodiscard]] ObservedTrace read_trace_ops(std::string_view json_text);

/// Match every rank of the trace against the contract.  Returns findings
/// (empty = the trace conforms).
[[nodiscard]] std::vector<std::string> conform(const Contract& contract,
                                               const ObservedTrace& trace);

}  // namespace mph::proto
