#include "src/minimpi/prof/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace minimpi::prof {

namespace {

[[nodiscard]] bool inside_any(const std::vector<Graph::Window>&, std::uint64_t);

}  // namespace

const char* segment_kind_name(SegmentKind kind) noexcept {
  switch (kind) {
    case SegmentKind::compute: return "compute";
    case SegmentKind::recv_wait: return "recv-wait";
    case SegmentKind::collective_wait: return "collective-wait";
    case SegmentKind::handshake: return "handshake";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Graph build
// ---------------------------------------------------------------------------

namespace {

/// Sort + merge overlapping windows so containment checks and compute-span
/// splitting see disjoint intervals (MPH phases nest: handshake contains
/// signature_allgather etc.).
std::vector<Graph::Window> merged(std::vector<Graph::Window> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const Graph::Window& a, const Graph::Window& b) {
              return a.begin < b.begin;
            });
  std::vector<Graph::Window> out;
  for (const Graph::Window& w : windows) {
    if (!out.empty() && w.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, w.end);
    } else {
      out.push_back(w);
    }
  }
  return out;
}

}  // namespace

// GraphBuilder exists only to reach Graph's private types from file scope.
struct GraphBuilder {
  static Graph run(const TraceReport& report) {
    Graph g;
    g.chains_.reserve(report.ranks.size());
    for (const RankTrace& r : report.ranks) {
      Graph::RankChain rc;
      rc.world_rank = r.world_rank;
      rc.track = r.track;
      rc.dropped = r.dropped;
      g.dropped_events_ += r.dropped;
      g.max_world_rank_ = std::max(g.max_world_rank_, r.world_rank);

      // Pass 1: anchors and attribution windows.  rank_main is recorded at
      // rank exit, so it survives overflow in practice; without one the
      // first/last event stand in (a partial chain, counted via dropped).
      bool have_anchor = false;
      std::uint64_t first_event = ~std::uint64_t{0};
      std::uint64_t last_event = 0;
      for (const TraceEvent& e : r.events) {
        first_event = std::min(first_event, e.t_start_ns);
        last_event = std::max(last_event, e.t_end_ns);
        if (e.op != TraceOp::phase || !e.span) continue;
        if (std::string_view(e.name) == "rank_main" ||
            e.tag == kPhaseRankMain) {
          if (!have_anchor) {
            rc.t_begin = e.t_start_ns;
            rc.t_end = e.t_end_ns;
            have_anchor = true;
          } else {  // respawned rank: one anchor per incarnation
            rc.t_begin = std::min(rc.t_begin, e.t_start_ns);
            rc.t_end = std::max(rc.t_end, e.t_end_ns);
          }
        } else {
          rc.phase_windows.push_back({e.t_start_ns, e.t_end_ns});
        }
      }
      for (const TraceEvent& e : r.events) {
        if (e.op == TraceOp::collective && e.span) {
          rc.collective_windows.push_back({e.t_start_ns, e.t_end_ns});
        }
      }
      if (!have_anchor) {
        rc.t_begin = r.events.empty() ? 0 : first_event;
        rc.t_end = r.events.empty() ? 0 : last_event;
      }
      rc.phase_windows = merged(std::move(rc.phase_windows));
      rc.collective_windows = merged(std::move(rc.collective_windows));

      // Pass 2: the program-order op chain.  Ring claim order IS program
      // order for a rank's own-thread records; foreign records on this
      // ring (recv_match instants from sender threads) are not chain ops.
      for (const TraceEvent& e : r.events) {
        if (e.op == TraceOp::send && !e.span) {
          Graph::Op op;
          op.is_send = true;
          op.t_start = e.t_start_ns;
          op.t_end = e.t_start_ns;
          op.flow = e.flow;
          rc.ops.push_back(op);
        } else if (e.op == TraceOp::recv && e.span) {
          const std::string_view name(e.name);
          if (name != "recv" && name != "wait") continue;
          Graph::Op op;
          op.t_start = e.t_start_ns;
          op.t_end = e.t_end_ns;
          op.flow = e.flow;
          if (inside_any(rc.phase_windows, e.t_start_ns)) {
            op.wait_kind = SegmentKind::handshake;
          } else if (inside_any(rc.collective_windows, e.t_start_ns)) {
            op.wait_kind = SegmentKind::collective_wait;
          } else {
            op.wait_kind = SegmentKind::recv_wait;
          }
          rc.ops.push_back(op);
        }
      }
      g.chains_.push_back(std::move(rc));
    }
    std::sort(g.chains_.begin(), g.chains_.end(),
              [](const Graph::RankChain& a, const Graph::RankChain& b) {
                return a.world_rank < b.world_rank;
              });

    // Stitch: flow id → producing send op.
    std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>> senders;
    for (std::uint32_t ri = 0; ri < g.chains_.size(); ++ri) {
      const auto& ops = g.chains_[ri].ops;
      for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        if (ops[oi].is_send && ops[oi].flow != 0) {
          senders.emplace(ops[oi].flow, std::make_pair(ri, oi));
        }
      }
    }
    for (Graph::RankChain& rc : g.chains_) {
      for (Graph::Op& op : rc.ops) {
        if (op.is_send) continue;
        const auto it =
            op.flow != 0 ? senders.find(op.flow) : senders.end();
        if (it == senders.end()) {
          // Dropped (or pre-flow) sender event: the wait stays on the path
          // with its observed completion, charged to the receiver.
          ++g.unresolved_flows_;
          op.bound = true;
          continue;
        }
        op.resolved = true;
        op.send_rank_index = it->second.first;
        op.send_op_index = it->second.second;
        op.t_send = g.chains_[it->second.first]
                        .ops[it->second.second]
                        .t_start;
        // The edge binds the path only when the sender issued after this
        // wait began; an earlier send means the message was already in
        // flight and the wait span is just matching overhead.
        op.bound = op.t_send >= op.t_start;
      }
    }

    // Global replay order: traced completion time, sends before the deps
    // they complete on ties, per-rank program order preserved.
    for (std::uint32_t ri = 0; ri < g.chains_.size(); ++ri) {
      const auto& ops = g.chains_[ri].ops;
      for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        g.order_.push_back({ops[oi].t_end, ri, oi, ops[oi].is_send});
      }
    }
    std::sort(g.order_.begin(), g.order_.end(),
              [](const Graph::OrderedOp& a, const Graph::OrderedOp& b) {
                if (a.completion != b.completion) {
                  return a.completion < b.completion;
                }
                if (a.is_send != b.is_send) return a.is_send;
                if (a.rank_index != b.rank_index) {
                  return a.rank_index < b.rank_index;
                }
                return a.op_index < b.op_index;
              });
    return g;
  }
};

namespace {

bool inside_any(const std::vector<Graph::Window>& windows, std::uint64_t t) {
  return std::any_of(
      windows.begin(), windows.end(),
      [t](const Graph::Window& w) { return t >= w.begin && t < w.end; });
}

}  // namespace

Graph Graph::build(const TraceReport& report) {
  return GraphBuilder::run(report);
}

std::string_view Graph::track_of(rank_t world_rank) const {
  for (const RankChain& rc : chains_) {
    if (rc.world_rank == world_rank) return rc.track;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Schedule replay (what-if)
// ---------------------------------------------------------------------------

std::uint64_t Graph::finish_with_scale(std::span<const double> scale) const {
  const auto scale_of = [&](std::uint32_t rank_index) {
    const rank_t wr = chains_[rank_index].world_rank;
    return wr >= 0 && static_cast<std::size_t>(wr) < scale.size()
               ? scale[static_cast<std::size_t>(wr)]
               : 1.0;
  };
  std::vector<std::vector<double>> done(chains_.size());
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    done[i].assign(chains_[i].ops.size(), 0.0);
  }
  for (const OrderedOp& oo : order_) {
    const RankChain& rc = chains_[oo.rank_index];
    const Op& op = rc.ops[oo.op_index];
    const double prev = oo.op_index > 0
                            ? done[oo.rank_index][oo.op_index - 1]
                            : static_cast<double>(rc.t_begin);
    const std::uint64_t prev_orig =
        oo.op_index > 0 ? rc.ops[oo.op_index - 1].t_end : rc.t_begin;
    const std::uint64_t gap =
        op.t_start > prev_orig ? op.t_start - prev_orig : 0;
    const double ready =
        prev + scale_of(oo.rank_index) * static_cast<double>(gap);
    double finished = ready;
    if (!op.is_send) {
      // Arrival keeps the traced *transit* — the delay past the point
      // where both the send had been issued and the wait was underway.
      // Measuring it from t_send alone would fold a late receiver's own
      // lateness into the edge and pin a compute-bound rank's arrivals
      // at their observed wall times, making every what-if on that rank
      // report ~zero.  Unresolved edges still pin the wait to its
      // observed completion (a dropped sender cannot be sped up).
      const double arrival =
          op.resolved
              ? done[op.send_rank_index][op.send_op_index] +
                    static_cast<double>(
                        op.t_end - std::max(op.t_send, op.t_start))
              : static_cast<double>(op.t_end);
      finished = std::max(ready, arrival);
    }
    done[oo.rank_index][oo.op_index] = finished;
  }
  double end = 0.0;
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    const RankChain& rc = chains_[i];
    const std::uint64_t last_orig =
        rc.ops.empty() ? rc.t_begin : rc.ops.back().t_end;
    const double last_done = rc.ops.empty()
                                 ? static_cast<double>(rc.t_begin)
                                 : done[i].back();
    const std::uint64_t tail =
        rc.t_end > last_orig ? rc.t_end - last_orig : 0;
    end = std::max(end, last_done + scale_of(static_cast<std::uint32_t>(i)) *
                                        static_cast<double>(tail));
  }
  return static_cast<std::uint64_t>(std::llround(std::max(end, 0.0)));
}

// ---------------------------------------------------------------------------
// Critical path extraction
// ---------------------------------------------------------------------------

namespace {

/// Emit [a, b) on `rc`'s timeline into `reversed` (which is built walking
/// backward, so later subintervals are pushed first).  Compute segments
/// are split against the rank's phase windows: time inside the handshake
/// (or any other MPH phase) is blamed on the handshake, matching
/// TraceReport::blocked_breakdown semantics.
void emit_reversed(std::vector<PathSegment>& reversed,
                   const Graph::RankChain& rc, std::uint64_t a, std::uint64_t b,
                   SegmentKind kind, std::uint64_t flow, rank_t from_rank,
                   std::uint64_t from_t,
                   const std::vector<Graph::Window>& phase_windows) {
  if (b <= a) return;
  const auto push = [&](std::uint64_t s, std::uint64_t e, SegmentKind k) {
    if (e <= s) return;
    PathSegment seg;
    seg.world_rank = rc.world_rank;
    seg.track = rc.track;
    seg.kind = k;
    seg.t_start_ns = s;
    seg.t_end_ns = e;
    // The cross-rank edge annotates the first (earliest) subinterval; when
    // splitting we push backward, so stamp it on the piece that starts at
    // `a` below.
    if (s == a) {
      seg.flow = flow;
      seg.from_rank = from_rank;
      seg.from_t_ns = from_t;
    }
    reversed.push_back(std::move(seg));
  };
  if (kind != SegmentKind::compute) {
    push(a, b, kind);
    return;
  }
  // Walk the windows backward so pushes stay in reverse time order.
  std::uint64_t upper = b;
  for (auto it = phase_windows.rbegin(); it != phase_windows.rend(); ++it) {
    if (it->end <= a || it->begin >= upper) continue;
    const std::uint64_t lo = std::max(a, it->begin);
    const std::uint64_t hi = std::min(upper, it->end);
    push(hi, upper, SegmentKind::compute);
    push(lo, hi, SegmentKind::handshake);
    upper = lo;
  }
  push(a, upper, SegmentKind::compute);
}

}  // namespace

Profile Graph::profile() const {
  Profile out;
  out.unresolved_flows = unresolved_flows_;
  out.dropped_events = dropped_events_;
  if (chains_.empty()) return out;

  out.job_start_ns = ~std::uint64_t{0};
  std::size_t last = 0;
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    out.job_start_ns = std::min(out.job_start_ns, chains_[i].t_begin);
    // Strict > keeps ties on the lowest rank — deterministic paths.
    if (chains_[i].t_end > chains_[last].t_end) last = i;
  }
  out.job_end_ns = chains_[last].t_end;

  // Walk backward from the last join, hopping to the sender whenever a
  // bound receive is reached.  Time strictly decreases at every step, so
  // the walk terminates at some rank's launch anchor.
  std::vector<PathSegment> reversed;
  std::size_t cur = last;
  std::uint64_t upper = chains_[last].t_end;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(chains_[last].ops.size()) - 1;
  for (;;) {
    const RankChain& rc = chains_[cur];
    if (i < 0) {
      // Origin reached: charge back to the job start, not just this rank's
      // own launch — the launcher spawned it after the earlier ranks, and
      // that spawn latency is causally upstream of everything on the path.
      // This closes the accounting: path total == wall, always.
      emit_reversed(reversed, rc, std::min(out.job_start_ns, upper), upper,
                    SegmentKind::compute, 0, -1, 0, rc.phase_windows);
      break;
    }
    const Op& op = rc.ops[static_cast<std::size_t>(i)];
    if (op.is_send || !op.bound || op.t_end > upper) {
      // Local instants and non-binding waits dissolve into the enclosing
      // compute segment (op.t_end > upper only for foreign-thread records
      // that out-ran the jump target; they belong to a later part of the
      // timeline, not this hop).
      --i;
      continue;
    }
    emit_reversed(reversed, rc, op.t_end, upper, SegmentKind::compute, 0, -1,
                  0, rc.phase_windows);
    if (op.resolved) {
      // The path hops to the sender: the receiver is only charged from
      // the send instant (transit + completion); everything earlier runs
      // concurrently on the sender's timeline.
      emit_reversed(reversed, rc, op.t_send, op.t_end, op.wait_kind, op.flow,
                    chains_[op.send_rank_index].world_rank, op.t_send,
                    rc.phase_windows);
      cur = op.send_rank_index;
      upper = op.t_send;
      i = static_cast<std::ptrdiff_t>(op.send_op_index) - 1;
    } else {
      emit_reversed(reversed, rc, op.t_start, op.t_end, op.wait_kind, op.flow,
                    -1, 0, rc.phase_windows);
      upper = op.t_start;
      --i;
    }
  }
  out.path.assign(reversed.rbegin(), reversed.rend());

  // Coalesce contiguous same-rank same-kind pieces (keep hop boundaries:
  // a segment carrying a resolved arrival starts a new hop).
  std::vector<PathSegment> coalesced;
  for (PathSegment& seg : out.path) {
    if (!coalesced.empty() && seg.from_rank < 0 &&
        coalesced.back().world_rank == seg.world_rank &&
        coalesced.back().kind == seg.kind &&
        coalesced.back().t_end_ns == seg.t_start_ns) {
      coalesced.back().t_end_ns = seg.t_end_ns;
      if (coalesced.back().flow == 0) coalesced.back().flow = seg.flow;
    } else {
      coalesced.push_back(std::move(seg));
    }
  }
  out.path = std::move(coalesced);

  for (const PathSegment& seg : out.path) {
    out.path_total_ns += seg.duration_ns();
    out.kind_ns[static_cast<std::size_t>(seg.kind)] += seg.duration_ns();
  }

  out.ranks.reserve(chains_.size());
  for (const RankChain& rc : chains_) {
    RankProfile rp;
    rp.world_rank = rc.world_rank;
    rp.track = rc.track;
    rp.finish_ns = rc.t_end;
    rp.slack_ns = out.job_end_ns - rc.t_end;
    rp.dropped = rc.dropped;
    out.ranks.push_back(std::move(rp));
  }
  for (const PathSegment& seg : out.path) {
    for (RankProfile& rp : out.ranks) {
      if (rp.world_rank != seg.world_rank) continue;
      if (seg.kind == SegmentKind::compute) {
        rp.path_compute_ns += seg.duration_ns();
      } else {
        rp.path_wait_ns += seg.duration_ns();
      }
      break;
    }
  }
  return out;
}

std::vector<ComponentBlame> Profile::components() const {
  std::map<std::string, ComponentBlame> by_name;
  for (const PathSegment& seg : path) {
    ComponentBlame& cb = by_name[TraceReport::component_of(seg.track)];
    if (seg.kind == SegmentKind::compute) {
      cb.compute_ns += seg.duration_ns();
    } else {
      cb.wait_ns += seg.duration_ns();
    }
  }
  std::vector<ComponentBlame> out;
  out.reserve(by_name.size());
  for (auto& [name, cb] : by_name) {
    cb.component = name;
    cb.share = path_total_ns > 0 ? static_cast<double>(cb.total_ns()) /
                                       static_cast<double>(path_total_ns)
                                 : 0.0;
    out.push_back(std::move(cb));
  }
  std::sort(out.begin(), out.end(),
            [](const ComponentBlame& a, const ComponentBlame& b) {
              if (a.total_ns() != b.total_ns()) {
                return a.total_ns() > b.total_ns();
              }
              return a.component < b.component;
            });
  return out;
}

// ---------------------------------------------------------------------------
// What-if
// ---------------------------------------------------------------------------

namespace {

WhatIf run_what_if(const Graph& graph, const Profile& profile,
                   std::string target, double speedup_fraction,
                   const std::vector<double>& scale) {
  WhatIf w;
  w.target = std::move(target);
  w.speedup_fraction = speedup_fraction;
  w.baseline_end_ns = profile.job_end_ns;
  w.new_end_ns = graph.finish_with_scale(scale);
  return w;
}

}  // namespace

WhatIf what_if_component(const Graph& graph, const Profile& profile,
                         std::string_view component, double speedup_fraction) {
  std::vector<double> scale(
      static_cast<std::size_t>(graph.max_world_rank() + 1), 1.0);
  for (const RankProfile& rp : profile.ranks) {
    if (rp.world_rank < 0) continue;
    if (TraceReport::component_of(rp.track) == component) {
      scale[static_cast<std::size_t>(rp.world_rank)] =
          1.0 - speedup_fraction;
    }
  }
  return run_what_if(graph, profile, std::string(component), speedup_fraction,
                     scale);
}

WhatIf what_if_rank(const Graph& graph, const Profile& profile, rank_t rank,
                    double speedup_fraction) {
  std::vector<double> scale(
      static_cast<std::size_t>(graph.max_world_rank() + 1), 1.0);
  if (rank >= 0 && static_cast<std::size_t>(rank) < scale.size()) {
    scale[static_cast<std::size_t>(rank)] = 1.0 - speedup_fraction;
  }
  return run_what_if(graph, profile, "rank " + std::to_string(rank),
                     speedup_fraction, scale);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

namespace {

std::string ms_string(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string pct_string(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

void append_row(std::string& out, const std::string& label,
                const std::string& value) {
  out += "  ";
  out += label;
  out.append(label.size() < 22 ? 22 - label.size() : 2, ' ');
  out += value;
  out += '\n';
}

std::vector<const PathSegment*> longest_segments(const Profile& profile,
                                                 std::size_t top) {
  std::vector<const PathSegment*> segs;
  segs.reserve(profile.path.size());
  for (const PathSegment& s : profile.path) segs.push_back(&s);
  std::sort(segs.begin(), segs.end(),
            [](const PathSegment* a, const PathSegment* b) {
              if (a->duration_ns() != b->duration_ns()) {
                return a->duration_ns() > b->duration_ns();
              }
              return a->t_start_ns < b->t_start_ns;  // deterministic ties
            });
  if (segs.size() > top) segs.resize(top);
  return segs;
}

}  // namespace

std::string render_top_segments(const Profile& profile,
                                std::size_t top_segments) {
  std::string out;
  const auto segs = longest_segments(profile, top_segments);
  out += "top critical-path segments:\n";
  if (segs.empty()) out += "  (empty path)\n";
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const PathSegment& s = *segs[i];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %2zu. %10s ms  %-15s %-24s t=%s..%s\n", i + 1,
                  ms_string(s.duration_ns()).c_str(),
                  segment_kind_name(s.kind), s.track.c_str(),
                  ms_string(s.t_start_ns).c_str(),
                  ms_string(s.t_end_ns).c_str());
    out += line;
  }
  return out;
}

std::string render_report(const Profile& profile,
                          std::span<const WhatIf> what_ifs,
                          std::size_t top_segments) {
  std::string out;
  out += "mph_prof critical path\n";
  append_row(out, "job wall", ms_string(profile.wall_ns()) + " ms  (t=" +
                                  ms_string(profile.job_start_ns) + ".." +
                                  ms_string(profile.job_end_ns) + " ms, " +
                                  std::to_string(profile.ranks.size()) +
                                  " ranks)");
  const double coverage =
      profile.wall_ns() > 0
          ? static_cast<double>(profile.path_total_ns) /
                static_cast<double>(profile.wall_ns())
          : 0.0;
  append_row(out, "critical path",
             ms_string(profile.path_total_ns) + " ms  (" +
                 pct_string(coverage) + " of wall, " +
                 std::to_string(profile.path.size()) + " segments)");
  if (profile.unresolved_flows > 0 || profile.dropped_events > 0) {
    out += "  warning: partial critical path — " +
           std::to_string(profile.unresolved_flows) +
           " flow edges unresolved (ring dropped " +
           std::to_string(profile.dropped_events) +
           " events); raise MINIMPI_TRACE=capacity=N for an exact path\n";
  }
  out += "\nblame by kind:\n";
  for (std::size_t k = 0; k < kSegmentKinds; ++k) {
    const double share =
        profile.path_total_ns > 0
            ? static_cast<double>(profile.kind_ns[k]) /
                  static_cast<double>(profile.path_total_ns)
            : 0.0;
    append_row(out, segment_kind_name(static_cast<SegmentKind>(k)),
               ms_string(profile.kind_ns[k]) + " ms  " + pct_string(share));
  }
  out += "\nblame by component (critical-path share):\n";
  for (const ComponentBlame& cb : profile.components()) {
    append_row(out, cb.component,
               pct_string(cb.share) + "  (compute " +
                   ms_string(cb.compute_ns) + " ms + wait " +
                   ms_string(cb.wait_ns) + " ms)");
  }
  out += '\n';
  out += render_top_segments(profile, top_segments);
  out += "\nslack per rank (how much later it could finish without moving "
         "the join):\n";
  for (const RankProfile& rp : profile.ranks) {
    std::string value = ms_string(rp.slack_ns) + " ms";
    if (rp.slack_ns == 0) value += "   <- binds the job";
    if (rp.dropped > 0) {
      value += "   (dropped " + std::to_string(rp.dropped) + " events)";
    }
    append_row(out, rp.track.empty() ? "rank " + std::to_string(rp.world_rank)
                                     : rp.track,
               value);
  }
  if (!what_ifs.empty()) {
    out += "\nwhat-if:\n";
    for (const WhatIf& w : what_ifs) {
      const double saved_share =
          w.baseline_end_ns > 0
              ? static_cast<double>(w.saved_ns()) /
                    static_cast<double>(w.baseline_end_ns)
              : 0.0;
      append_row(out,
                 w.target + " " + pct_string(w.speedup_fraction) + " faster",
                 "job finishes " + ms_string(w.saved_ns()) + " ms sooner (" +
                     pct_string(saved_share) + ")");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chrome-JSON overlay
// ---------------------------------------------------------------------------

std::string annotate_chrome_json(const TraceReport& report,
                                 const Profile& profile) {
  std::string base = report.to_chrome_json();
  std::string overlay;
  for (const PathSegment& seg : profile.path) {
    overlay += ",\n{\"name\":\"critical\",\"cat\":\"critical\",\"ph\":\"X\","
               "\"pid\":0,\"tid\":" +
               std::to_string(seg.world_rank) +
               ",\"ts\":" + us_string(seg.t_start_ns) +
               ",\"dur\":" + us_string(seg.duration_ns()) +
               ",\"args\":{\"kind\":\"";
    overlay += segment_kind_name(seg.kind);
    overlay += "\"}}";
    if (seg.from_rank >= 0 && seg.flow != 0) {
      // Flow arrows: Perfetto draws sender → receiver for each resolved
      // message edge the path followed.
      const std::string id = std::to_string(seg.flow);
      overlay +=
          ",\n{\"name\":\"critical_flow\",\"cat\":\"critical\",\"ph\":\"s\","
          "\"id\":" +
          id + ",\"pid\":0,\"tid\":" + std::to_string(seg.from_rank) +
          ",\"ts\":" + us_string(seg.from_t_ns) + "}";
      overlay +=
          ",\n{\"name\":\"critical_flow\",\"cat\":\"critical\",\"ph\":\"f\","
          "\"bp\":\"e\",\"id\":" +
          id + ",\"pid\":0,\"tid\":" + std::to_string(seg.world_rank) +
          ",\"ts\":" + us_string(seg.t_end_ns) + "}";
    }
  }
  // Splice the overlay in before the traceEvents array closes.  The
  // closing sequence below is produced exactly once by to_chrome_json
  // (event strings escape newlines, so it cannot appear inside one).
  const std::string_view close = "\n],\n\"displayTimeUnit\"";
  const std::size_t pos = base.find(close);
  if (pos == std::string::npos) return base;  // unexpected layout: no overlay
  base.insert(pos, overlay);
  return base;
}

}  // namespace minimpi::prof
