#include "src/proto/checker.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/proto/expand.hpp"

namespace mph::proto {

namespace {

using detail::ExpOp;
using detail::Layout;
using detail::Slot;

/// All per-rank projections for one choice assignment.
struct Expansion {
  std::vector<std::vector<ExpOp>> ops;  // indexed by global rank
};

std::string loc_str(const Contract& contract, SourceLoc loc) {
  return contract.origin + ":" + std::to_string(loc.line);
}

/// Dedup sink: the same finding discovered under several choice
/// assignments is reported once.
class Sink {
 public:
  explicit Sink(ProtoReport& report) : report_(report) {}

  void add(std::vector<std::string>& bucket, std::string finding) {
    if (seen_.insert(finding).second) bucket.push_back(std::move(finding));
  }

  ProtoReport& report() noexcept { return report_; }

 private:
  ProtoReport& report_;
  std::set<std::string> seen_;
};

// --- matching ---------------------------------------------------------------

struct SendRec {
  int gid = 0;
  int idx = 0;  // op index within gid's projection
  const ExpOp* op = nullptr;
  int matched_gid = -1;  // receiver, when matched
  int matched_idx = -1;
  const Slot* matched_slot = nullptr;
};

struct SlotRec {
  int gid = 0;  // receiver
  int idx = 0;
  const Slot* slot = nullptr;
  int matched_send = -1;  // index into the sends vector
};

class ComboChecker {
 public:
  ComboChecker(const Contract& contract, const Layout& layout,
               Expansion expansion, Sink& sink)
      : contract_(contract),
        layout_(layout),
        exp_(std::move(expansion)),
        sink_(sink) {}

  void run() {
    match_p2p();
    check_types();
    check_collectives();
    find_cycles();
  }

  /// Graphviz rendering of the happens-before graph (dump-graph mode).
  std::string to_dot() {
    match_p2p();
    check_collectives();
    build_graph();
    std::string out =
        "digraph causality {\n  rankdir=LR;\n"
        "  node [shape=box, fontsize=10];\n";
    for (std::size_t n = 0; n < node_desc_.size(); ++n) {
      out += "  n" + std::to_string(n) + " [label=\"" +
             node_label_[n] + "\"" +
             (node_shared_[n] ? ", style=filled, fillcolor=lightgrey" : "") +
             "];\n";
    }
    for (const auto& [from, to, match] : edges_) {
      out += "  n" + std::to_string(from) + " -> n" + std::to_string(to);
      if (match) out += " [style=dashed]";
      out += ";\n";
    }
    out += "}\n";
    return out;
  }

 private:
  std::string rank_of(int gid) const {
    return detail::rank_name(contract_, layout_, gid);
  }

  std::string send_desc(const SendRec& send) const {
    return rank_of(send.gid) + " send->" + rank_of(send.op->dest) + " (tag=" +
           std::to_string(send.op->tag) + ")" + " at " +
           loc_str(contract_, send.op->loc);
  }

  std::string slot_desc(int gid, const Slot& slot) const {
    const std::string src =
        slot.src < 0 ? std::string("any") : rank_of(slot.src);
    return rank_of(gid) + " recv<-" + src + " (tag=" +
           std::to_string(slot.tag) + ") at " + loc_str(contract_, slot.loc);
  }

  void match_p2p() {
    if (matched_) return;
    matched_ = true;
    // Deterministic channel maps: (src, dst, tag) → sends, exact slots;
    // (dst, tag) → wildcard slots.  All in program order.
    std::map<std::tuple<int, int, int>, std::vector<int>> channel_sends;
    std::map<std::tuple<int, int, int>, std::vector<int>> channel_slots;
    std::map<std::tuple<int, int>, std::vector<int>> any_slots;
    for (int gid = 0; gid < layout_.world; ++gid) {
      const auto& ops = exp_.ops[static_cast<std::size_t>(gid)];
      for (int idx = 0; idx < static_cast<int>(ops.size()); ++idx) {
        const ExpOp& op = ops[static_cast<std::size_t>(idx)];
        if (op.kind == ExpOp::Kind::send) {
          channel_sends[{gid, op.dest, op.tag}].push_back(
              static_cast<int>(sends_.size()));
          sends_.push_back(SendRec{gid, idx, &op, -1, -1, nullptr});
        } else if (op.kind == ExpOp::Kind::recvgroup) {
          for (const Slot& slot : op.slots) {
            const int id = static_cast<int>(slots_.size());
            slots_.push_back(SlotRec{gid, idx, &slot, -1});
            if (slot.src < 0) {
              any_slots[{gid, slot.tag}].push_back(id);
            } else {
              channel_slots[{slot.src, gid, slot.tag}].push_back(id);
            }
          }
        }
      }
    }
    // FIFO per channel, exact-source slots first (minimpi matches posted
    // exact receives before wildcard ones).
    for (const auto& [key, slot_ids] : channel_slots) {
      auto it = channel_sends.find(key);
      const std::size_t have =
          it == channel_sends.end() ? 0 : it->second.size();
      const std::size_t n = std::min(have, slot_ids.size());
      for (std::size_t k = 0; k < n; ++k) {
        pair_up(it->second[k], slot_ids[k]);
      }
    }
    // Leftover sends feed `any` slots on their destination, ordered by
    // (source rank, program order) — the canonical static order.
    for (const auto& [key, slot_ids] : any_slots) {
      const auto [dst, tag] = key;
      std::vector<int> pool;
      for (const auto& [skey, send_ids] : channel_sends) {
        if (std::get<1>(skey) != dst || std::get<2>(skey) != tag) continue;
        for (const int s : send_ids) {
          if (sends_[static_cast<std::size_t>(s)].matched_slot == nullptr) {
            pool.push_back(s);
          }
        }
      }
      const std::size_t n = std::min(pool.size(), slot_ids.size());
      for (std::size_t k = 0; k < n; ++k) pair_up(pool[k], slot_ids[k]);
    }
    for (const SendRec& send : sends_) {
      if (send.matched_slot != nullptr) continue;
      sink_.add(sink_.report().orphan_sends,
                "orphan send: " + send_desc(send) +
                    " — no receive on the destination matches it");
    }
    for (const SlotRec& slot : slots_) {
      if (slot.matched_send >= 0) continue;
      sink_.add(sink_.report().unmatched_recvs,
                "unmatched recv: " + slot_desc(slot.gid, *slot.slot) +
                    " — no send fills this slot");
    }
  }

  void pair_up(int send_id, int slot_id) {
    SendRec& send = sends_[static_cast<std::size_t>(send_id)];
    SlotRec& slot = slots_[static_cast<std::size_t>(slot_id)];
    send.matched_gid = slot.gid;
    send.matched_idx = slot.idx;
    send.matched_slot = slot.slot;
    slot.matched_send = send_id;
  }

  void check_types() {
    for (const SendRec& send : sends_) {
      if (send.matched_slot == nullptr) continue;
      const TypeSpec& give = send.op->type;
      const TypeSpec& want = send.matched_slot->type;
      const std::string where = " at " + loc_str(contract_, send.op->loc) +
                                " / " +
                                loc_str(contract_, send.matched_slot->loc);
      const std::string head = "type mismatch: " + rank_of(send.gid) +
                               " send->" + rank_of(send.matched_gid) +
                               " (tag=" + std::to_string(send.op->tag) + ") ";
      if (give.typed() && want.typed() && !give.sig().matches(want.sig())) {
        sink_.add(sink_.report().type_mismatches,
                  head + "carries type " + give.name + " (" +
                      std::to_string(give.size) + " B/elem) but the receive "
                      "expects type " + want.name + " (" +
                      std::to_string(want.size) + " B/elem)" + where);
        continue;
      }
      if (give.count != 0 && want.count != 0 && give.count != want.count) {
        sink_.add(sink_.report().type_mismatches,
                  head + "carries " + std::to_string(give.count) +
                      " element(s) but the receive expects " +
                      std::to_string(want.count) + where);
        continue;
      }
      const std::uint64_t give_bytes = give.total_bytes();
      const std::uint64_t want_bytes = want.total_bytes();
      if (give_bytes != 0 && want_bytes != 0 && give_bytes != want_bytes) {
        sink_.add(sink_.report().type_mismatches,
                  head + "carries " + std::to_string(give_bytes) +
                      " byte(s) but the receive expects " +
                      std::to_string(want_bytes) + where);
      }
    }
  }

  // --- collectives ----------------------------------------------------------

  /// Per-scope, per-member sequences of collective op indices.
  void check_collectives() {
    if (collectives_done_) return;
    collectives_done_ = true;
    std::map<std::string, std::map<int, std::vector<int>>> scopes;
    for (int gid = 0; gid < layout_.world; ++gid) {
      const auto& ops = exp_.ops[static_cast<std::size_t>(gid)];
      for (int idx = 0; idx < static_cast<int>(ops.size()); ++idx) {
        const ExpOp& op = ops[static_cast<std::size_t>(idx)];
        if (op.kind != ExpOp::Kind::collective) continue;
        if (op.scope != "world") {
          const auto [comp, rank] = layout_.owner(gid);
          if (contract_.components[static_cast<std::size_t>(comp)].name !=
              op.scope) {
            sink_.add(sink_.report().collective_errors,
                      "collective scope error: " + rank_of(gid) + " joins " +
                          std::string(op_kind_name(op.coll)) + "(" +
                          op.scope + ") but is not a member of that scope"
                          " at " + loc_str(contract_, op.loc));
            continue;
          }
        }
        scopes[op.scope][gid].push_back(idx);
      }
    }
    for (const auto& [scope, by_member] : scopes) {
      check_scope(scope, by_member);
    }
  }

  std::vector<int> scope_members(const std::string& scope) const {
    std::vector<int> members;
    if (scope == "world") {
      for (int gid = 0; gid < layout_.world; ++gid) members.push_back(gid);
      return members;
    }
    const int comp = contract_.component_index(scope);
    const ComponentDecl& decl =
        contract_.components[static_cast<std::size_t>(comp)];
    for (int r = 0; r < decl.ranks; ++r) {
      members.push_back(layout_.gid(comp, r));
    }
    return members;
  }

  void check_scope(const std::string& scope,
                   const std::map<int, std::vector<int>>& by_member) {
    const std::vector<int> members = scope_members(scope);
    std::size_t width = 0;
    bool uniform = true;
    bool first = true;
    for (const int gid : members) {
      const auto it = by_member.find(gid);
      const std::size_t n = it == by_member.end() ? 0 : it->second.size();
      if (first) {
        width = n;
        first = false;
      } else if (n != width) {
        uniform = false;
      }
    }
    if (!uniform) {
      std::string detail;
      for (const int gid : members) {
        const auto it = by_member.find(gid);
        const std::size_t n = it == by_member.end() ? 0 : it->second.size();
        if (!detail.empty()) detail += ", ";
        detail += rank_of(gid) + "=" + std::to_string(n);
      }
      sink_.add(sink_.report().collective_errors,
                "collective mismatch: scope '" + scope +
                    "' members disagree on the number of collective steps (" +
                    detail + ")");
      return;  // slot-wise comparison and shared nodes need equal lengths
    }
    // Slot-wise agreement, using the first member as the reference.
    for (std::size_t s = 0; s < width; ++s) {
      const ExpOp* ref = nullptr;
      int ref_gid = -1;
      for (const int gid : members) {
        const ExpOp& op =
            exp_.ops[static_cast<std::size_t>(gid)][static_cast<std::size_t>(
                by_member.at(gid)[s])];
        if (ref == nullptr) {
          ref = &op;
          ref_gid = gid;
          continue;
        }
        const std::string where =
            " at " + loc_str(contract_, ref->loc) + " / " +
            loc_str(contract_, op.loc);
        if (op.coll != ref->coll) {
          sink_.add(sink_.report().collective_errors,
                    "collective mismatch: scope '" + scope + "' step " +
                        std::to_string(s) + ": " + rank_of(ref_gid) +
                        " runs " + op_kind_name(ref->coll) + " but " +
                        rank_of(gid) + " runs " + op_kind_name(op.coll) +
                        where);
          continue;
        }
        if (op.root != ref->root) {
          sink_.add(sink_.report().collective_errors,
                    "collective mismatch: scope '" + scope + "' step " +
                        std::to_string(s) + ": bcast roots disagree (" +
                        rank_of(ref_gid) + " says " + rank_of(ref->root) +
                        ", " + rank_of(gid) + " says " + rank_of(op.root) +
                        ")" + where);
        }
        if (op.type.typed() && ref->type.typed() &&
            !op.type.sig().matches(ref->type.sig())) {
          sink_.add(sink_.report().collective_errors,
                    "collective mismatch: scope '" + scope + "' step " +
                        std::to_string(s) + ": " + rank_of(ref_gid) +
                        " uses type " + ref->type.name + " but " +
                        rank_of(gid) + " uses type " + op.type.name + where);
        }
      }
    }
    // Record shared collective slots for the happens-before graph.
    for (std::size_t s = 0; s < width; ++s) {
      for (const int gid : members) {
        const auto it = by_member.find(gid);
        if (it == by_member.end()) continue;
        shared_slot_[{gid, it->second[s]}] = {scope, static_cast<int>(s)};
      }
    }
  }

  // --- happens-before graph -------------------------------------------------

  void build_graph() {
    if (graph_built_) return;
    graph_built_ = true;
    // Node ids: one per projected op, except consistent collective steps,
    // which collapse onto one shared node per (scope, step).
    std::map<std::pair<std::string, int>, int> shared_ids;
    node_of_.assign(static_cast<std::size_t>(layout_.world), {});
    const auto describe_collective = [&](const ExpOp& op) {
      return std::string(op_kind_name(op.coll)) + "(" + op.scope + ") at " +
             loc_str(contract_, op.loc);
    };
    for (int gid = 0; gid < layout_.world; ++gid) {
      const auto& ops = exp_.ops[static_cast<std::size_t>(gid)];
      auto& ids = node_of_[static_cast<std::size_t>(gid)];
      ids.reserve(ops.size());
      for (int idx = 0; idx < static_cast<int>(ops.size()); ++idx) {
        const ExpOp& op = ops[static_cast<std::size_t>(idx)];
        const auto shared = shared_slot_.find({gid, idx});
        if (shared != shared_slot_.end()) {
          const auto [it, fresh] =
              shared_ids.try_emplace(shared->second, 0);
          if (fresh) {
            it->second = new_node(describe_collective(op), /*shared=*/true,
                                  gid, idx);
          }
          ids.push_back(it->second);
          continue;
        }
        std::string label;
        if (op.kind == ExpOp::Kind::send) {
          label = rank_of(gid) + " send->" + rank_of(op.dest) + " tag=" +
                  std::to_string(op.tag);
        } else if (op.kind == ExpOp::Kind::recvgroup) {
          label = rank_of(gid) + " recv x" +
                  std::to_string(op.slots.size());
        } else {
          label = rank_of(gid) + " " + describe_collective(op);
        }
        ids.push_back(new_node(label, /*shared=*/false, gid, idx));
      }
      for (std::size_t i = 1; i < ids.size(); ++i) {
        if (ids[i - 1] != ids[i]) {
          edges_.emplace_back(ids[i - 1], ids[i], false);
        }
      }
    }
    for (const SendRec& send : sends_) {
      if (send.matched_slot == nullptr) continue;
      edges_.emplace_back(
          node_of_[static_cast<std::size_t>(send.gid)]
                  [static_cast<std::size_t>(send.idx)],
          node_of_[static_cast<std::size_t>(send.matched_gid)]
                  [static_cast<std::size_t>(send.matched_idx)],
          true);
    }
    adj_.assign(node_desc_.size(), {});
    for (const auto& [from, to, match] : edges_) {
      adj_[static_cast<std::size_t>(from)].push_back(to);
    }
    for (auto& out : adj_) std::sort(out.begin(), out.end());
  }

  int new_node(std::string label, bool shared, int gid, int idx) {
    const int id = static_cast<int>(node_desc_.size());
    node_desc_.push_back({gid, idx});
    node_label_.push_back(std::move(label));
    node_shared_.push_back(shared);
    return id;
  }

  void find_cycles() {
    build_graph();
    // Iterative DFS with colors; a back edge to a grey node closes a cycle.
    enum : std::uint8_t { white, grey, black };
    std::vector<std::uint8_t> color(node_desc_.size(), white);
    std::vector<int> stack;          // current DFS path (node ids)
    std::vector<std::size_t> child;  // next adjacency index per path entry
    for (int root = 0; root < static_cast<int>(node_desc_.size()); ++root) {
      if (color[static_cast<std::size_t>(root)] != white) continue;
      stack.push_back(root);
      child.push_back(0);
      color[static_cast<std::size_t>(root)] = grey;
      while (!stack.empty()) {
        const int node = stack.back();
        auto& next = child.back();
        const auto& out = adj_[static_cast<std::size_t>(node)];
        if (next >= out.size()) {
          color[static_cast<std::size_t>(node)] = black;
          stack.pop_back();
          child.pop_back();
          continue;
        }
        const int target = out[next++];
        if (color[static_cast<std::size_t>(target)] == white) {
          color[static_cast<std::size_t>(target)] = grey;
          stack.push_back(target);
          child.push_back(0);
        } else if (color[static_cast<std::size_t>(target)] == grey) {
          report_cycle(stack, target);
        }
      }
    }
  }

  void report_cycle(const std::vector<int>& stack, int entry) {
    const auto start = std::find(stack.begin(), stack.end(), entry);
    std::vector<int> cycle(start, stack.end());
    // Canonical rotation (smallest node id first) so the same cycle found
    // from different DFS roots dedups to one finding.
    const auto min_it = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min_it, cycle.end());
    std::set<int> gids;
    for (const int node : cycle) {
      if (!node_shared_[static_cast<std::size_t>(node)]) {
        gids.insert(node_desc_[static_cast<std::size_t>(node)].first);
      }
    }
    std::string out = "wait-for cycle across " +
                      std::to_string(gids.size()) + " rank(s): ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i != 0) out += " ; ";
      const int prev =
          cycle[(i + cycle.size() - 1) % cycle.size()];
      out += describe_node(cycle[static_cast<std::size_t>(i)], prev);
    }
    sink_.add(sink_.report().deadlocks, std::move(out));
  }

  /// Cycle-report description of one node; `prev` is the in-cycle
  /// predecessor, used to name the blocking slot of a receive group.
  std::string describe_node(int node, int prev) {
    const auto [gid, idx] = node_desc_[static_cast<std::size_t>(node)];
    const ExpOp& op =
        exp_.ops[static_cast<std::size_t>(gid)][static_cast<std::size_t>(idx)];
    if (op.kind == ExpOp::Kind::send) {
      return rank_of(gid) + " send->" + rank_of(op.dest) + " (tag=" +
             std::to_string(op.tag) + ") at " + loc_str(contract_, op.loc);
    }
    if (op.kind == ExpOp::Kind::recvgroup) {
      // Prefer the slot fed by the in-cycle predecessor (the actual
      // blocking dependency the cycle runs through).
      const Slot* pick = &op.slots.front();
      const auto [pgid, pidx] = node_desc_[static_cast<std::size_t>(prev)];
      for (const SlotRec& slot : slots_) {
        if (slot.gid != gid || slot.idx != idx || slot.matched_send < 0) {
          continue;
        }
        const SendRec& send =
            sends_[static_cast<std::size_t>(slot.matched_send)];
        if (send.gid == pgid && send.idx == pidx) {
          pick = slot.slot;
          break;
        }
      }
      return slot_desc(gid, *pick);
    }
    return std::string(op_kind_name(op.coll)) + "(" + op.scope + ") at " +
           loc_str(contract_, op.loc);
  }

  const Contract& contract_;
  const Layout& layout_;
  Expansion exp_;
  Sink& sink_;

  bool matched_ = false;
  bool collectives_done_ = false;
  bool graph_built_ = false;
  std::vector<SendRec> sends_;
  std::vector<SlotRec> slots_;
  /// (gid, op idx) → (scope, step): consistent collective slots.
  std::map<std::pair<int, int>, std::pair<std::string, int>> shared_slot_;
  std::vector<std::vector<int>> node_of_;  // per gid, per op → node id
  std::vector<std::pair<int, int>> node_desc_;  // node id → (gid, op idx)
  std::vector<std::string> node_label_;
  std::vector<bool> node_shared_;
  std::vector<std::tuple<int, int, bool>> edges_;  // (from, to, is_match)
  std::vector<std::vector<int>> adj_;
};

/// Enumerate either/or branch assignments (cartesian product across
/// sites), capped.  Returns true while `assign` holds a fresh assignment.
bool next_assignment(const std::vector<detail::ChoiceSite>& sites,
                     std::vector<int>& assign) {
  for (std::size_t i = sites.size(); i-- > 0;) {
    if (++assign[i] < sites[i].branches) return true;
    assign[i] = 0;
  }
  return false;
}

Expansion expand_all(const Contract& contract, const Layout& layout,
                     const std::vector<int>& assign,
                     const ProtoCheckOptions& options) {
  Expansion exp;
  exp.ops.resize(static_cast<std::size_t>(layout.world));
  for (std::size_t c = 0; c < contract.components.size(); ++c) {
    const ComponentDecl& decl = contract.components[c];
    for (int r = 0; r < decl.ranks; ++r) {
      exp.ops[static_cast<std::size_t>(
          layout.gid(static_cast<int>(c), r))] =
          detail::expand_rank(contract, layout, static_cast<int>(c), r,
                              assign, options.max_ops_per_rank);
    }
  }
  return exp;
}

}  // namespace

std::string ProtoReport::to_string() const {
  std::string out;
  const auto emit = [&out](const std::vector<std::string>& bucket) {
    for (const std::string& line : bucket) {
      out += line;
      out += '\n';
    }
  };
  emit(structural);
  emit(orphan_sends);
  emit(unmatched_recvs);
  emit(type_mismatches);
  emit(collective_errors);
  emit(deadlocks);
  return out;
}

ProtoReport check(const Contract& contract,
                  const ProtoCheckOptions& options) {
  ProtoReport report;
  Sink sink(report);
  const Layout layout = detail::make_layout(contract);
  const std::vector<detail::ChoiceSite> sites = detail::choice_sites(contract);
  std::vector<int> assign(sites.size(), 0);
  int combos = 0;
  bool more = true;
  while (more) {
    if (combos >= options.max_choice_combos) {
      sink.add(report.structural,
               "either/or branch assignments exceed the cap of " +
                   std::to_string(options.max_choice_combos) +
                   "; only the first " +
                   std::to_string(options.max_choice_combos) +
                   " were checked");
      break;
    }
    ++combos;
    try {
      ComboChecker(contract, layout, expand_all(contract, layout, assign,
                                                options),
                   sink)
          .run();
    } catch (const MphError& e) {
      sink.add(report.structural, e.what());
      break;
    }
    more = next_assignment(sites, assign);
  }
  return report;
}

std::string dump_causality_dot(const Contract& contract,
                               const ProtoCheckOptions& options) {
  ProtoReport scratch;
  Sink sink(scratch);
  const Layout layout = detail::make_layout(contract);
  const std::vector<detail::ChoiceSite> sites = detail::choice_sites(contract);
  const std::vector<int> assign(sites.size(), 0);
  ComboChecker combo(contract, layout,
                     expand_all(contract, layout, assign, options), sink);
  return combo.to_dot();
}

}  // namespace mph::proto
