// Topology (paper §9 further work (a)): SMP-node carving and node-local /
// cross-node communicator splits.
#include "src/minimpi/topology.hpp"

#include <gtest/gtest.h>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"

using namespace minimpi;

namespace {
void run_ok(int nprocs, std::function<void(const Comm&)> entry) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = run_spmd(
      nprocs, [&](const Comm& world, const ExecEnv&) { entry(world); },
      options);
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}
}  // namespace

TEST(Topology, FlatIsOneRankPerNode) {
  const Topology t = Topology::flat(5);
  EXPECT_EQ(t.num_nodes(), 5);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(t.node_of(r), r);
    EXPECT_EQ(t.cpu_of(r), 0);
    EXPECT_EQ(t.tasks_on_node(r), 1);
  }
}

TEST(Topology, UniformCarving) {
  const Topology t = Topology::uniform(10, 4);
  EXPECT_EQ(t.num_nodes(), 3);  // 4 + 4 + 2
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(9), 2);
  EXPECT_EQ(t.tasks_on_node(2), 2);
  EXPECT_EQ(t.cpu_of(5), 1);
  EXPECT_TRUE(t.same_node(4, 7));
  EXPECT_FALSE(t.same_node(3, 4));
}

TEST(Topology, HeterogeneousCarving) {
  // The paper's motivating case: the same hardware carved differently —
  // one 16-cpu node split into 4 tasks next to one split into 2.
  const Topology t = Topology::from_node_sizes({4, 2, 1});
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_EQ(t.world_size(), 7);
  EXPECT_EQ(t.ranks_on_node(0), (std::vector<rank_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.ranks_on_node(1), (std::vector<rank_t>{4, 5}));
  EXPECT_EQ(t.ranks_on_node(2), (std::vector<rank_t>{6}));
}

TEST(Topology, Validation) {
  EXPECT_THROW((void)Topology::flat(0), Error);
  EXPECT_THROW((void)Topology::uniform(4, 0), Error);
  EXPECT_THROW((void)Topology::from_node_sizes({}), Error);
  EXPECT_THROW((void)Topology::from_node_sizes({2, 0}), Error);
  const Topology t = Topology::flat(3);
  EXPECT_THROW((void)t.node_of(3), Error);
  EXPECT_THROW((void)t.tasks_on_node(-1), Error);
}

TEST(SplitByNode, NodeLocalCommunicators) {
  run_ok(6, [](const Comm& world) {
    const Topology t = Topology::uniform(6, 2);
    const Comm node = split_by_node(world, t);
    ASSERT_TRUE(node.valid());
    EXPECT_EQ(node.size(), 2);
    EXPECT_EQ(node.rank(), world.rank() % 2);
    // Node-local collective: sums ranks of my node only.
    const int sum = allreduce_value(node, world.rank(), op::Sum{});
    const int base = (world.rank() / 2) * 2;
    EXPECT_EQ(sum, base + base + 1);
  });
}

TEST(SplitAcrossNodes, LeaderCommunicator) {
  run_ok(6, [](const Comm& world) {
    const Topology t = Topology::uniform(6, 2);
    const Comm cross = split_across_nodes(world, t);
    ASSERT_TRUE(cross.valid());
    // cpu 0 ranks {0,2,4} form one comm; cpu 1 ranks {1,3,5} the other.
    EXPECT_EQ(cross.size(), 3);
    const int sum = allreduce_value(cross, world.rank(), op::Sum{});
    EXPECT_EQ(sum, world.rank() % 2 == 0 ? 6 : 9);
  });
}

TEST(SplitByNode, HierarchicalAllreduceMatchesFlat) {
  // Classic SMP pattern: node-local reduce, cross-node reduce of the
  // leaders, node-local broadcast == flat allreduce.
  run_ok(8, [](const Comm& world) {
    const Topology t = Topology::uniform(8, 4);
    const Comm node = split_by_node(world, t);
    const Comm leaders = split_across_nodes(world, t);
    const int mine = world.rank() + 1;

    const int node_sum = reduce_value(node, mine, op::Sum{}, 0);
    int total = 0;
    if (node.rank() == 0) {
      total = allreduce_value(leaders, node_sum, op::Sum{});
    } else {
      // Non-leaders still participate in their cpu-k cross comm... they
      // must not: cross-node comm of cpu k>0 would deadlock with leaders'
      // allreduce.  Use it for nothing; receive the result via the node.
      (void)leaders;
    }
    bcast_value(node, total, 0);
    EXPECT_EQ(total, allreduce_value(world, mine, op::Sum{}));
  });
}

TEST(SplitByNode, TopologySplitsSendNoMessages) {
  // Every member holds the topology, so both splits are known groups.
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = run_spmd(
      6,
      [](const Comm& world, const ExecEnv&) {
        const Topology t = Topology::uniform(6, 2);
        const Comm node = split_by_node(world, t);
        const Comm cross = split_across_nodes(world, t);
        EXPECT_EQ(node.group(), t.ranks_on_node(t.node_of(world.rank())));
        EXPECT_EQ(cross.size(), 3);
        EXPECT_EQ(cross.rank(), world.rank() / 2);
      },
      options);
  ASSERT_TRUE(report.ok) << report.first_error();
  EXPECT_EQ(report.stats.messages, 0u);
  EXPECT_EQ(report.stats.contexts_allocated, 2u);
}

TEST(SplitByNode, TopologyWorldSizeMustMatchJob) {
  run_ok(4, [](const Comm& world) {
    const Topology wrong = Topology::flat(3);
    EXPECT_THROW((void)split_by_node(world, wrong), Error);
    EXPECT_THROW((void)split_across_nodes(world, wrong), Error);
  });
}

TEST(SplitByNode, WorksOnSubCommunicators) {
  run_ok(6, [](const Comm& world) {
    const Topology t = Topology::uniform(6, 2);
    // Component = ranks {1,2,3,4}; node boundaries cut through it.
    const bool member = world.rank() >= 1 && world.rank() <= 4;
    const Comm comp = world.split(member ? 1 : undefined, world.rank());
    if (!member) return;
    const Comm node = split_by_node(comp, t);
    // Rank 1 is alone on node 0; ranks 2,3 share node 1; rank 4 alone on 2.
    const int expect = (world.rank() == 2 || world.rank() == 3) ? 2 : 1;
    EXPECT_EQ(node.size(), expect);
  });
}
