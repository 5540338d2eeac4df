// Paper §9 "further work" features: SMP-node awareness (a) and dynamic
// component reallocation via remap (b).
#include <gtest/gtest.h>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/topology.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;
using minimpi::Topology;

TEST(NodeAwareness, NodeCommSlicesComponentByNode) {
  // atmosphere on 4 ranks spanning two 2-task nodes; ocean on 2 ranks of
  // one node.
  run_mph_ok(
      "BEGIN\natmosphere\nocean\nEND\n",
      {TestExec{{"atmosphere"}, "", 4,
                [](Mph& h, const Comm&) {
                  const Topology t = Topology::uniform(6, 2);
                  EXPECT_EQ(h.node_id(t), h.global_proc_id() / 2);
                  const Comm node = h.node_comm(t);
                  EXPECT_EQ(node.size(), 2);
                  // Node-local exchange within the component.
                  const int sum = minimpi::allreduce_value(
                      node, 1, minimpi::op::Sum{});
                  EXPECT_EQ(sum, 2);
                }},
       TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm&) {
                  const Topology t = Topology::uniform(6, 2);
                  EXPECT_EQ(h.node_id(t), 2);
                  EXPECT_EQ(h.node_comm(t).size(), 2);
                }}});
}

TEST(NodeAwareness, ComponentCutAcrossUnevenNodes) {
  // A 16-cpu node carved into 3 tasks next to one carved into 2 (paper:
  // "a 16-cpu SMP node could be carved into different number of MPI
  // tasks").
  run_mph_ok("BEGIN\nmodel\nEND\n",
             {TestExec{{"model"}, "", 5, [](Mph& h, const Comm&) {
                         const Topology t = Topology::from_node_sizes({3, 2});
                         const Comm node = h.node_comm(t);
                         const int expect = h.global_proc_id() < 3 ? 3 : 2;
                         EXPECT_EQ(node.size(), expect);
                       }}});
}

TEST(Remap, McseComponentResize) {
  // Phase 1: atmosphere 0-3, ocean 4-5.  Phase 2 (after remap): the ocean
  // grows to ranks 2-5 — dynamic processor reallocation without relaunch.
  const std::string phase1 = R"(BEGIN
Multi_Component_Begin
atmosphere 0 3
ocean 4 5
Multi_Component_End
END
)";
  const std::string phase2 = R"(BEGIN
Multi_Component_Begin
atmosphere 0 1
ocean 2 5
Multi_Component_End
END
)";
  run_mph_ok(phase1,
             {TestExec{{"atmosphere", "ocean"}, "", 6,
                       [&](Mph& h, const Comm& world) {
                         EXPECT_EQ(h.directory().component("ocean").size(), 2);

                         Mph h2 = h.remap(RegistrySource::from_text(phase2));
                         EXPECT_EQ(h2.directory().component("ocean").size(), 4);
                         const Directory& dir2 = h2.directory();
                         EXPECT_EQ(dir2.component("atmosphere").size(), 2);
                         // Membership changed with the ranges.
                         const bool in_ocean2 = world.rank() >= 2;
                         EXPECT_EQ(h2.proc_in_component("ocean"), in_ocean2);
                         // The OLD handle still answers with the old layout
                         // and its communicators still work.
                         EXPECT_EQ(h.directory().component("ocean").size(), 2);
                         if (h.proc_in_component("atmosphere")) {
                           const int n = minimpi::allreduce_value(
                               h.comp_comm("atmosphere"), 1,
                               minimpi::op::Sum{});
                           EXPECT_EQ(n, 4);
                         }
                         if (in_ocean2) {
                           const int n = minimpi::allreduce_value(
                               h2.comp_comm("ocean"), 1, minimpi::op::Sum{});
                           EXPECT_EQ(n, 4);
                         }
                       }}});
}

TEST(Remap, InstanceRecarving) {
  // An ensemble re-carved from 2x3 to 3x2 ranks between phases.
  const std::string phase1 = R"(BEGIN
Multi_Instance_Begin
Run1 0 2
Run2 3 5
Multi_Instance_End
END
)";
  const std::string phase2 = R"(BEGIN
Multi_Instance_Begin
Run1 0 1
Run2 2 3
Run3 4 5
Multi_Instance_End
END
)";
  run_mph_ok(phase1,
             {TestExec{{}, "Run", 6, [&](Mph& h, const Comm& world) {
                         EXPECT_EQ(h.total_components(), 2);
                         EXPECT_EQ(h.comp_comm().size(), 3);

                         Mph h2 = h.remap(RegistrySource::from_text(phase2));
                         EXPECT_EQ(h2.total_components(), 3);
                         EXPECT_EQ(h2.comp_comm().size(), 2);
                         const std::string expect =
                             "Run" + std::to_string(world.rank() / 2 + 1);
                         EXPECT_EQ(h2.comp_name(), expect);
                       }}});
}

TEST(Remap, IncompatibleDeclarationRejected) {
  // The new file drops the ocean: the executable's declaration no longer
  // matches -> clean SetupError on every rank.
  const std::string phase1 = R"(BEGIN
Multi_Component_Begin
atmosphere 0 1
ocean 2 3
Multi_Component_End
END
)";
  const std::string phase2 = "BEGIN\natmosphere 0 3\nEND\n";
  const std::string err = run_mph_error(
      phase1, {TestExec{{"atmosphere", "ocean"}, "", 4,
                        [&](Mph& h, const Comm&) {
                          (void)h.remap(RegistrySource::from_text(phase2));
                        }}});
  EXPECT_NE(err.find("no matching entry"), std::string::npos);
}

TEST(Remap, OldAndNewCommunicatorsAreIsolated) {
  const std::string registry = "BEGIN\na\nb\nEND\n";
  run_mph_ok(registry,
             {TestExec{{"a"}, "", 2,
                       [&](Mph& h, const Comm&) {
                         Mph h2 = h.remap(RegistrySource::from_text(registry));
                         EXPECT_NE(h.comp_comm().context(),
                                   h2.comp_comm().context());
                         // Traffic on the new comm is invisible to the old.
                         if (h2.local_proc_id() == 0) {
                           h2.comp_comm().send(1, 1, 0);
                         } else {
                           EXPECT_FALSE(h.comp_comm()
                                            .iprobe(minimpi::any_source,
                                                    minimpi::any_tag)
                                            .has_value());
                           int v = 0;
                           h2.comp_comm().recv(v, 0, 0);
                         }
                       }},
              TestExec{{"b"}, "", 1,
                       [&](Mph& h, const Comm&) {
                         (void)h.remap(RegistrySource::from_text(registry));
                       }}});
}
