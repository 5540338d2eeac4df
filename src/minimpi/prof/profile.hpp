// profile.hpp — mph_prof: cross-rank causal critical-path analysis.
//
// Turns a TraceReport into bottleneck blame.  The per-rank timelines are
// stitched into a job-wide happens-before DAG: each rank's own-thread ops
// (send instants, recv/wait spans) in ring order give the program-order
// chain, per-message flow ids give the cross-rank send→recv-match edges
// (collectives and handshake barriers are built over traced p2p, so their
// waves come along for free), and the launcher's rank_main phase spans
// anchor every rank's launch and join on the shared job clock.  From the
// DAG we extract:
//
//  * the critical path from launch to the last join, as a contiguous chain
//    of segments each attributed to one rank and one kind (compute,
//    recv-wait, collective-wait, handshake);
//  * per-rank slack ("how much later could this rank finish without moving
//    the join") and per-component blame percentages;
//  * what-if answers ("if component X were 20% faster the job finishes Z
//    sooner") by replaying the DAG schedule with scaled compute segments.
//
// Soundness under ring overflow: a receive whose matching send event was
// dropped (or predates flow stamping) is kept on the path with its
// *observed* completion time and counted in Profile::unresolved_flows —
// the result is a partial path with an explicit warning in the report,
// never a crash or a silently wrong chain.  See DESIGN.md §16.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/trace.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi::prof {

// ---------------------------------------------------------------------------
// Profile
// ---------------------------------------------------------------------------

/// What a critical-path segment's time was spent on.
enum class SegmentKind : std::uint8_t {
  compute,          ///< the rank's own work between traced waits
  recv_wait,        ///< waiting for a point-to-point message
  collective_wait,  ///< waiting inside a collective
  handshake,        ///< inside an MPH phase span (handshake, registry, ...)
};
inline constexpr std::size_t kSegmentKinds = 4;

[[nodiscard]] const char* segment_kind_name(SegmentKind kind) noexcept;

/// One hop of the critical path.  Segments are contiguous in time: the
/// chain starts at the origin rank's launch and ends at the last join.
struct PathSegment {
  rank_t world_rank = -1;
  std::string track;  ///< "component[instance]:rank" timeline name
  SegmentKind kind = SegmentKind::compute;
  std::uint64_t t_start_ns = 0;
  std::uint64_t t_end_ns = 0;
  /// For a wait bound by a message: the flow id and where the path came
  /// from (the sender rank and its send timestamp).  from_rank == -1 when
  /// the edge was unresolved (dropped sender event) — the wait is then
  /// charged to this rank from its own wait start.
  std::uint64_t flow = 0;
  rank_t from_rank = -1;
  std::uint64_t from_t_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return t_end_ns - t_start_ns;
  }
};

/// Per-rank summary: when it finished, how much slack it had, and how much
/// of the critical path ran on it.
struct RankProfile {
  rank_t world_rank = -1;
  std::string track;
  std::uint64_t finish_ns = 0;        ///< this rank's join time
  std::uint64_t slack_ns = 0;         ///< job end − finish
  std::uint64_t path_compute_ns = 0;  ///< critical-path compute on this rank
  std::uint64_t path_wait_ns = 0;     ///< critical-path waits on this rank
  std::uint64_t dropped = 0;          ///< ring events lost on this rank

  [[nodiscard]] std::uint64_t path_ns() const noexcept {
    return path_compute_ns + path_wait_ns;
  }
};

/// Per-component blame: the share of the critical path spent on (any rank
/// of) this component.
struct ComponentBlame {
  std::string component;
  std::uint64_t compute_ns = 0;
  std::uint64_t wait_ns = 0;
  double share = 0.0;  ///< (compute+wait) / critical-path total, in [0,1]

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return compute_ns + wait_ns;
  }
};

/// One what-if answer: job finish time with `target` sped up by
/// `speedup_fraction` (0.2 = that target's compute takes 20% less time).
struct WhatIf {
  std::string target;  ///< component name or "rank N"
  double speedup_fraction = 0.0;
  std::uint64_t baseline_end_ns = 0;
  std::uint64_t new_end_ns = 0;
  [[nodiscard]] std::uint64_t saved_ns() const noexcept {
    return baseline_end_ns > new_end_ns ? baseline_end_ns - new_end_ns : 0;
  }
};

/// The analysis result.
struct Profile {
  std::uint64_t job_start_ns = 0;  ///< earliest rank launch on the job clock
  std::uint64_t job_end_ns = 0;    ///< last rank join
  std::vector<PathSegment> path;   ///< chronological, contiguous
  std::vector<RankProfile> ranks;  ///< ascending world rank
  std::uint64_t path_total_ns = 0;           ///< sum of segment durations
  std::uint64_t kind_ns[kSegmentKinds] = {}; ///< path time per SegmentKind
  std::uint64_t unresolved_flows = 0;  ///< receives with no matching send event
  std::uint64_t dropped_events = 0;    ///< ring drops across all ranks

  [[nodiscard]] std::uint64_t wall_ns() const noexcept {
    return job_end_ns > job_start_ns ? job_end_ns - job_start_ns : 0;
  }
  /// Blame aggregated per component, descending share (name breaks ties).
  [[nodiscard]] std::vector<ComponentBlame> components() const;
};

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

/// The stitched happens-before DAG.  Build once, then extract the baseline
/// profile and replay what-if schedules against it.
class Graph {
 public:
  /// Stitch a drained TraceReport (never throws on partial data: missing
  /// anchors fall back to first/last event, unresolved flows are counted).
  [[nodiscard]] static Graph build(const TraceReport& report);

  /// Baseline critical path + blame.  Deterministic: ties (equal finish
  /// times, equal blame) break toward the lower rank / lexicographic name.
  [[nodiscard]] Profile profile() const;

  /// Replay the DAG schedule with per-world-rank compute scale factors
  /// (scale[r] = 0.8 means rank r's compute gaps take 80% of their traced
  /// time; ranks beyond the span keep scale 1) and return the new job end.
  [[nodiscard]] std::uint64_t finish_with_scale(
      std::span<const double> scale) const;

  /// Timeline name of a world rank ("" when the rank has no trace).
  [[nodiscard]] std::string_view track_of(rank_t world_rank) const;

  [[nodiscard]] rank_t max_world_rank() const noexcept {
    return max_world_rank_;
  }

  // The node types are public so file-scope helpers in profile.cpp can
  // take them; the containers below stay private.

  /// One node of a rank's program-order chain: a send instant or a
  /// receive/wait dependency span.
  struct Op {
    bool is_send = false;
    std::uint64_t t_start = 0;  ///< sends: == t_end
    std::uint64_t t_end = 0;    ///< the op's traced completion
    std::uint64_t flow = 0;
    SegmentKind wait_kind = SegmentKind::recv_wait;  ///< deps only
    // Resolved cross-rank edge (deps only).
    bool resolved = false;
    bool bound = false;  ///< sender issued after the wait began
    std::uint32_t send_rank_index = 0;
    std::uint32_t send_op_index = 0;
    std::uint64_t t_send = 0;
  };

  struct Window {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  struct RankChain {
    rank_t world_rank = -1;
    std::string track;
    std::uint64_t t_begin = 0;  ///< rank_main start (or first event)
    std::uint64_t t_end = 0;    ///< rank_main end (or last event)
    std::vector<Op> ops;        ///< ring order == program order
    std::vector<Window> phase_windows;  ///< handshake & other MPH phases
    std::vector<Window> collective_windows;
    std::uint64_t dropped = 0;
  };

  /// Global processing order for the schedule replay: ops sorted by traced
  /// completion time (sends before deps on ties, then rank, then index).
  struct OrderedOp {
    std::uint64_t completion = 0;
    std::uint32_t rank_index = 0;
    std::uint32_t op_index = 0;
    bool is_send = false;
  };

 private:
  friend struct GraphBuilder;

  std::vector<RankChain> chains_;       ///< ascending world rank
  std::vector<OrderedOp> order_;
  rank_t max_world_rank_ = -1;
  std::uint64_t unresolved_flows_ = 0;
  std::uint64_t dropped_events_ = 0;
};

// ---------------------------------------------------------------------------
// What-if + reports
// ---------------------------------------------------------------------------

/// "If every rank of `component` were `speedup_fraction` faster."
[[nodiscard]] WhatIf what_if_component(const Graph& graph,
                                       const Profile& profile,
                                       std::string_view component,
                                       double speedup_fraction);

/// "If world rank `rank` were `speedup_fraction` faster."
[[nodiscard]] WhatIf what_if_rank(const Graph& graph, const Profile& profile,
                                  rank_t rank, double speedup_fraction);

/// Human-readable bottleneck report (what `mph report` prints):
/// critical-path total vs wall, blame by kind and by component, the top-N
/// longest segments, per-rank slack, any what-ifs, and — when events were
/// dropped — the explicit "N flow edges unresolved (ring dropped M
/// events)" partial-path warning.
[[nodiscard]] std::string render_report(const Profile& profile,
                                        std::span<const WhatIf> what_ifs = {},
                                        std::size_t top_segments = 5);

/// Just the top-N critical-path segments table (the segments section of
/// render_report).
[[nodiscard]] std::string render_top_segments(const Profile& profile,
                                              std::size_t top_segments = 5);

/// The trace's Chrome JSON with the critical path overlaid: every path
/// segment becomes a cat:"critical" span on its rank's track and every
/// resolved path message edge a ph:"s"/"f" flow-arrow pair, so Perfetto
/// highlights exactly the chain that bounded the job.
[[nodiscard]] std::string annotate_chrome_json(const TraceReport& report,
                                               const Profile& profile);

}  // namespace minimpi::prof
