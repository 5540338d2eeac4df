#include "src/minimpi/topology.hpp"

#include <numeric>
#include <string>

#include "src/minimpi/error.hpp"

namespace minimpi {

Topology Topology::flat(int world_size) {
  return uniform(world_size, 1);
}

Topology Topology::uniform(int world_size, int tasks_per_node) {
  if (world_size <= 0) {
    throw Error(Errc::invalid_argument, "topology: world size must be > 0");
  }
  if (tasks_per_node <= 0) {
    throw Error(Errc::invalid_argument,
                "topology: tasks per node must be > 0");
  }
  std::vector<int> sizes;
  int remaining = world_size;
  while (remaining > 0) {
    sizes.push_back(std::min(tasks_per_node, remaining));
    remaining -= sizes.back();
  }
  return from_node_sizes(sizes);
}

Topology Topology::from_node_sizes(const std::vector<int>& node_sizes) {
  if (node_sizes.empty()) {
    throw Error(Errc::invalid_argument, "topology: no nodes");
  }
  Topology t;
  rank_t base = 0;
  for (std::size_t n = 0; n < node_sizes.size(); ++n) {
    const int size = node_sizes[n];
    if (size <= 0) {
      throw Error(Errc::invalid_argument,
                  "topology: node " + std::to_string(n) +
                      " has non-positive task count " + std::to_string(size));
    }
    t.node_base_.push_back(base);
    for (int i = 0; i < size; ++i) {
      t.node_of_.push_back(static_cast<int>(n));
    }
    base += size;
  }
  return t;
}

int Topology::node_of(rank_t world_rank) const {
  if (world_rank < 0 || world_rank >= world_size()) {
    throw Error(Errc::invalid_rank,
                "topology: rank " + std::to_string(world_rank) +
                    " outside world of " + std::to_string(world_size()));
  }
  return node_of_[static_cast<std::size_t>(world_rank)];
}

int Topology::cpu_of(rank_t world_rank) const {
  const int node = node_of(world_rank);
  return world_rank - node_base_[static_cast<std::size_t>(node)];
}

int Topology::tasks_on_node(int node) const {
  if (node < 0 || node >= num_nodes()) {
    throw Error(Errc::invalid_argument,
                "topology: node " + std::to_string(node) + " outside [0, " +
                    std::to_string(num_nodes()) + ")");
  }
  const rank_t base = node_base_[static_cast<std::size_t>(node)];
  const rank_t next = node + 1 < num_nodes()
                          ? node_base_[static_cast<std::size_t>(node) + 1]
                          : static_cast<rank_t>(world_size());
  return next - base;
}

std::vector<rank_t> Topology::ranks_on_node(int node) const {
  const rank_t base = node_base_[static_cast<std::size_t>(node)];
  std::vector<rank_t> ranks(static_cast<std::size_t>(tasks_on_node(node)));
  std::iota(ranks.begin(), ranks.end(), base);
  return ranks;
}

namespace {
/// The members of `comm` whose `place` (node, or index within the node) is
/// the caller's, in `comm` rank order.  Every member holds the same
/// Topology and so knows its group: a split_known, with no message.
Comm split_by_place(const Comm& comm, const Topology& topology, const char* op,
                    int (Topology::*place)(rank_t) const) {
  if (topology.world_size() != comm.job().world_size()) {
    throw Error(Errc::invalid_argument,
                std::string(op) + ": topology describes " +
                    std::to_string(topology.world_size()) +
                    " ranks but the job has " +
                    std::to_string(comm.job().world_size()));
  }
  const int mine = (topology.*place)(comm.global_of(comm.rank()));
  std::vector<rank_t> members;
  for (rank_t r = 0; r < comm.size(); ++r) {
    if ((topology.*place)(comm.global_of(r)) == mine) members.push_back(r);
  }
  return comm.split_known(members);
}
}  // namespace

Comm split_by_node(const Comm& comm, const Topology& topology) {
  return split_by_place(comm, topology, "split_by_node", &Topology::node_of);
}

Comm split_across_nodes(const Comm& comm, const Topology& topology) {
  return split_by_place(comm, topology, "split_across_nodes",
                        &Topology::cpu_of);
}

}  // namespace minimpi
