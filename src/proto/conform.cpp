#include "src/proto/conform.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "src/minimpi/error.hpp"
#include "src/minimpi/prof/trace_load.hpp"
#include "src/proto/expand.hpp"
#include "src/util/strings.hpp"

namespace mph::proto {

namespace {

using detail::ExpOp;
using detail::Layout;
using detail::Slot;

/// [start, end] of a span event, in trace nanoseconds.  One nanosecond
/// of slack absorbs the export's rounding to whole nanoseconds.
struct Window {
  std::uint64_t start = 0;
  std::uint64_t end = 0;

  [[nodiscard]] bool covers(std::uint64_t t) const noexcept {
    return t + 1 >= start && t <= end + 1;
  }
};

bool inside_any(const std::vector<Window>& windows, std::uint64_t t) {
  return std::any_of(windows.begin(), windows.end(),
                     [t](const Window& w) { return w.covers(t); });
}

}  // namespace

std::string ObservedOp::to_string() const {
  switch (kind) {
    case Kind::send:
      return "send to world rank " + std::to_string(peer) + " (tag=" +
             std::to_string(tag) + ", " + std::to_string(bytes) + " B)";
    case Kind::recv:
      return "recv from world rank " + std::to_string(peer) + " (tag=" +
             std::to_string(tag) + ", " + std::to_string(bytes) + " B)";
    case Kind::collective:
      return coll + " collective";
  }
  return "?";
}

const ObservedRank* ObservedTrace::by_world(int rank) const noexcept {
  for (const ObservedRank& r : ranks) {
    if (r.world_rank == rank) return &r;
  }
  return nullptr;
}

ObservedTrace read_trace_ops(std::string_view json_text) {
  minimpi::prof::LoadedTrace loaded;
  try {
    loaded = minimpi::prof::load_chrome_trace(json_text);
  } catch (const minimpi::Error&) {
    throw MphError(
        "proto: not a trace export — the document has no 'traceEvents'");
  }
  ObservedTrace out;
  for (const minimpi::RankTrace& r : loaded.report.ranks) {
    // The per-rank exclusion windows.  Phase spans (handshake, comm_setup,
    // ...) hide everything inside them; collective spans hide the p2p
    // traffic that implements the collective.
    std::vector<Window> phase_windows;
    std::vector<Window> collective_windows;
    for (const minimpi::TraceEvent& e : r.events) {
      if (!e.span) continue;
      if (e.op == minimpi::TraceOp::phase &&
          std::string_view(e.name) != "rank_main") {
        // rank_main spans the whole user function (the profiler's anchor),
        // not a setup phase — it must not hide protocol traffic.
        phase_windows.push_back(Window{e.t_start_ns, e.t_end_ns});
      } else if (e.op == minimpi::TraceOp::collective) {
        collective_windows.push_back(Window{e.t_start_ns, e.t_end_ns});
      }
    }
    ObservedRank rank;
    rank.world_rank = r.world_rank;
    rank.component = minimpi::TraceReport::component_of(r.track);
    if (const std::size_t colon = r.track.rfind(':');
        colon != std::string::npos) {
      const std::optional<long long> local =
          util::parse_int(std::string_view(r.track).substr(colon + 1));
      if (!local || *local < 0 || *local > std::numeric_limits<int>::max()) {
        throw MphError("proto: trace track '" + r.track +
                       "' does not end in a local rank");
      }
      rank.local = static_cast<int>(*local);
    }
    // Protocol ops, in execution order (the export writes each rank's ring
    // in order and the loader keeps it).
    for (const minimpi::TraceEvent& e : r.events) {
      const std::string_view name(e.name);
      const bool p2p =
          std::string_view(minimpi::trace_op_category(e.op)) == "p2p";
      ObservedOp op;
      if (e.op == minimpi::TraceOp::collective) {
        op.kind = ObservedOp::Kind::collective;
        op.coll = name;
      } else if (p2p && name == "send") {
        op.kind = ObservedOp::Kind::send;
      } else if (p2p && (name == "recv" || name == "wait")) {
        op.kind = ObservedOp::Kind::recv;
      } else {
        continue;  // bookkeeping (post_recv, recv_match, control_send,
                   // blocked), phases and future event kinds
      }
      if (inside_any(phase_windows, e.t_start_ns)) {
        continue;  // handshake-internal traffic, not protocol traffic
      }
      if (op.kind != ObservedOp::Kind::collective &&
          inside_any(collective_windows, e.t_start_ns)) {
        continue;  // a collective implementing itself with sends/receives
      }
      op.peer = e.peer;
      op.tag = e.tag;
      op.bytes = e.bytes;
      rank.ops.push_back(std::move(op));
    }
    out.ranks.push_back(std::move(rank));
  }
  return out;
}

namespace {

bool next_assignment(const std::vector<detail::ChoiceSite>& sites,
                     std::vector<int>& assign) {
  for (std::size_t i = sites.size(); i-- > 0;) {
    if (++assign[i] < sites[i].branches) return true;
    assign[i] = 0;
  }
  return false;
}

std::string expected_desc(const Contract& contract, const Layout& layout,
                          const ExpOp& op) {
  const std::string at =
      " at " + contract.origin + ":" + std::to_string(op.loc.line);
  switch (op.kind) {
    case ExpOp::Kind::send:
      return "send to " + detail::rank_name(contract, layout, op.dest) +
             " (tag=" + std::to_string(op.tag) + ")" + at;
    case ExpOp::Kind::recvgroup: {
      if (op.slots.size() == 1) {
        const Slot& slot = op.slots.front();
        const std::string src =
            slot.src < 0 ? std::string("any")
                         : detail::rank_name(contract, layout, slot.src);
        return "recv from " + src + " (tag=" + std::to_string(slot.tag) +
               ")" + at;
      }
      return "a group of " + std::to_string(op.slots.size()) +
             " receive(s)" + at;
    }
    case ExpOp::Kind::collective:
      return std::string(op_kind_name(op.coll)) + "(" + op.scope + ")" + at;
  }
  return "?";
}

/// Payload compatibility of an observed byte count with a contract spec.
bool bytes_ok(const TypeSpec& type, std::uint64_t bytes) {
  const std::uint64_t pinned = type.total_bytes();
  if (pinned != 0) return bytes == pinned;
  if (type.typed()) return bytes % type.size == 0;
  return true;
}

struct RankVerdict {
  bool ok = false;
  std::size_t fail_at = 0;  ///< observed-op index of the divergence
  std::string detail;
};

/// Match one rank's observed ops against one expansion.  `to_gid` maps
/// trace world ranks into contract global ranks (-1 = unknown).
RankVerdict match_rank(const Contract& contract, const Layout& layout,
                       const std::vector<int>& to_gid,
                       const std::vector<ExpOp>& expected,
                       const std::vector<ObservedOp>& observed) {
  RankVerdict verdict;
  std::size_t j = 0;
  const auto fail = [&](std::size_t at, std::string detail) {
    verdict.ok = false;
    verdict.fail_at = at;
    verdict.detail = std::move(detail);
    return verdict;
  };
  const auto gid_of = [&](int world) -> int {
    if (world < 0 || world >= static_cast<int>(to_gid.size())) return -1;
    return to_gid[static_cast<std::size_t>(world)];
  };
  for (const ExpOp& op : expected) {
    if (op.kind == ExpOp::Kind::recvgroup) {
      std::vector<bool> used(op.slots.size(), false);
      for (std::size_t k = 0; k < op.slots.size(); ++k, ++j) {
        if (j >= observed.size()) {
          return fail(j, "trace ends but the contract still expects " +
                             expected_desc(contract, layout, op));
        }
        const ObservedOp& obs = observed[j];
        if (obs.kind != ObservedOp::Kind::recv) {
          return fail(j, "expected " + expected_desc(contract, layout, op));
        }
        const int src = gid_of(obs.peer);
        // Exact slots first; a wildcard slot absorbs what is left.
        std::size_t pick = op.slots.size();
        for (std::size_t s = 0; s < op.slots.size(); ++s) {
          if (used[s]) continue;
          const Slot& slot = op.slots[s];
          if (slot.tag != obs.tag || !bytes_ok(slot.type, obs.bytes)) {
            continue;
          }
          if (slot.src == src) {
            pick = s;
            break;
          }
          if (slot.src < 0 && pick == op.slots.size()) pick = s;
        }
        if (pick == op.slots.size()) {
          return fail(j, "no open slot of the receive group accepts it (" +
                             expected_desc(contract, layout, op) + ")");
        }
        used[pick] = true;
      }
      continue;
    }
    if (j >= observed.size()) {
      return fail(j, "trace ends but the contract still expects " +
                         expected_desc(contract, layout, op));
    }
    const ObservedOp& obs = observed[j];
    if (op.kind == ExpOp::Kind::send) {
      if (obs.kind != ObservedOp::Kind::send ||
          gid_of(obs.peer) != op.dest || obs.tag != op.tag ||
          !bytes_ok(op.type, obs.bytes)) {
        return fail(j, "expected " + expected_desc(contract, layout, op));
      }
    } else {  // collective
      if (obs.kind != ObservedOp::Kind::collective ||
          obs.coll != op_kind_name(op.coll)) {
        return fail(j, "expected " + expected_desc(contract, layout, op));
      }
    }
    ++j;
  }
  if (j != observed.size()) {
    return fail(j, "the contract is complete but the trace continues");
  }
  verdict.ok = true;
  return verdict;
}

}  // namespace

std::vector<std::string> conform(const Contract& contract,
                                 const ObservedTrace& trace) {
  std::vector<std::string> findings;
  const Layout layout = detail::make_layout(contract);
  // Identity checks: every observed rank must belong to a declared
  // component, and rank counts must agree with the declarations.
  std::map<std::string, int> observed_count;
  int max_world = -1;
  for (const ObservedRank& rank : trace.ranks) {
    max_world = std::max(max_world, rank.world_rank);
    if (contract.find_component(rank.component) == nullptr) {
      findings.push_back("conform: trace rank " +
                         std::to_string(rank.world_rank) + " (track '" +
                         rank.component + ":" + std::to_string(rank.local) +
                         "') belongs to no contract component");
      continue;
    }
    ++observed_count[rank.component];
  }
  for (const ComponentDecl& decl : contract.components) {
    const auto it = observed_count.find(decl.name);
    const int seen = it == observed_count.end() ? 0 : it->second;
    if (seen != decl.ranks) {
      findings.push_back(
          "conform: component '" + decl.name + "' declares " +
          std::to_string(decl.ranks) + " rank(s) but the trace shows " +
          std::to_string(seen));
    }
  }
  if (!findings.empty()) return findings;
  std::vector<int> to_gid(static_cast<std::size_t>(max_world + 1), -1);
  for (const ObservedRank& rank : trace.ranks) {
    to_gid[static_cast<std::size_t>(rank.world_rank)] = layout.gid(
        contract.component_index(rank.component), rank.local);
  }
  const std::vector<detail::ChoiceSite> sites = detail::choice_sites(contract);
  constexpr int kMaxAssignments = 64;
  constexpr std::uint64_t kMaxOps = 100000;
  for (const ObservedRank& rank : trace.ranks) {
    const int comp = contract.component_index(rank.component);
    RankVerdict best;
    bool first = true;
    std::vector<int> assign(sites.size(), 0);
    int tried = 0;
    bool more = true;
    while (more && tried < kMaxAssignments) {
      ++tried;
      const std::vector<ExpOp> expected = detail::expand_rank(
          contract, layout, comp, rank.local, assign, kMaxOps);
      const RankVerdict verdict =
          match_rank(contract, layout, to_gid, expected, rank.ops);
      if (verdict.ok) {
        best = verdict;
        break;
      }
      if (first || verdict.fail_at > best.fail_at) best = verdict;
      first = false;
      more = next_assignment(sites, assign);
    }
    if (best.ok) continue;
    std::string what = "conform: " + rank.component + "[" +
                       std::to_string(rank.local) + "]";
    if (best.fail_at < rank.ops.size()) {
      what += " trace event #" + std::to_string(best.fail_at) + " (" +
              rank.ops[best.fail_at].to_string() + ") violates the contract: ";
    } else {
      what += ": ";
    }
    what += best.detail;
    findings.push_back(std::move(what));
  }
  return findings;
}

}  // namespace mph::proto
