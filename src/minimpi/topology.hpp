// topology.hpp — SMP-node topology of a job (paper §9 further work (a):
// "flexible way to handle SMP nodes, i.e., recognizing a 16-cpu SMP node
// could be carved into different number of MPI tasks").
//
// A Topology maps world ranks onto nodes.  The same 16-cpu node can be
// carved into 16 single-cpu tasks, 4 four-cpu tasks, or 1 task — the
// Topology records the chosen carving so components can build node-local
// communicators (cf. MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)) and make
// placement-aware decisions.
#pragma once

#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

class Topology {
 public:
  /// Flat topology: every rank is its own node (pure distributed memory —
  /// the default assumption of the paper's platforms).
  static Topology flat(int world_size);

  /// Uniform carving: consecutive ranks grouped `tasks_per_node` apiece;
  /// the last node may be smaller.
  static Topology uniform(int world_size, int tasks_per_node);

  /// Explicit per-node task counts (must sum to the world size).  This is
  /// the "different number of MPI tasks per node" case: e.g. a 16-cpu node
  /// carved into 4 tasks next to one carved into 16.
  static Topology from_node_sizes(const std::vector<int>& node_sizes);

  [[nodiscard]] int world_size() const noexcept {
    return static_cast<int>(node_of_.size());
  }
  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(node_base_.size());
  }

  /// Node hosting a world rank.
  [[nodiscard]] int node_of(rank_t world_rank) const;

  /// Rank's index within its node (0-based).
  [[nodiscard]] int cpu_of(rank_t world_rank) const;

  /// Number of tasks on a node.
  [[nodiscard]] int tasks_on_node(int node) const;

  /// World ranks of a node, ascending.
  [[nodiscard]] std::vector<rank_t> ranks_on_node(int node) const;

  /// True when two ranks share a node (shared-memory reachable).
  [[nodiscard]] bool same_node(rank_t a, rank_t b) const {
    return node_of(a) == node_of(b);
  }

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  std::vector<int> node_of_;    ///< world rank -> node
  std::vector<rank_t> node_base_;  ///< node -> first world rank
};

/// Split a communicator into node-local sub-communicators under a
/// topology: members of `comm` on the same node end up in one child,
/// ordered by their rank in `comm`.  Collective over `comm`; every member
/// passes the same `topology`, from which each computes its own group, so
/// no message is sent (Comm::split_known).
[[nodiscard]] Comm split_by_node(const Comm& comm, const Topology& topology);

/// The complementary split: one child per node-local index, i.e. a
/// cross-node communicator of all "cpu k" ranks (useful for hierarchical
/// collectives).  Collective over `comm`, with the same `topology` on every
/// member; no message is sent.
[[nodiscard]] Comm split_across_nodes(const Comm& comm,
                                      const Topology& topology);

}  // namespace minimpi
