// Property-based sweeps: randomized application layouts are generated,
// launched, and the handshake invariants are checked on every rank:
//   * the directory is identical everywhere and covers the world exactly;
//   * component communicators have the size/rank the registry dictates;
//   * every component communicator partitions (or, with overlap, covers)
//     its executable;
//   * joins order ranks exactly as §5.1 specifies, for random pairs;
//   * pure-SCME layouts (§6.1's one split) satisfy the same invariants.
#include <gtest/gtest.h>

#include "src/minimpi/collectives.hpp"
#include "src/util/rng.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;

namespace {

struct GeneratedApp {
  std::string registry_text;
  std::vector<TestExec> execs;
  int total_ranks = 0;
};

/// Generate a random SCME/MCME mixture: 2-5 executables, each either a
/// single component (1-3 ranks) or a multi-component block (2-3 components,
/// disjoint or overlapping, 2-5 ranks).
GeneratedApp generate_app(mph::util::Rng& rng) {
  GeneratedApp app;
  std::string body;
  const int execs = static_cast<int>(rng.range(2, 5));
  int name_counter = 0;
  for (int e = 0; e < execs; ++e) {
    const bool multi = rng.uniform() < 0.5;
    if (!multi) {
      const std::string name = "comp" + std::to_string(name_counter++);
      const int nprocs = static_cast<int>(rng.range(1, 3));
      body += name + "\n";
      app.execs.push_back(TestExec{{name}, "", nprocs, nullptr});
      app.total_ranks += nprocs;
    } else {
      const int ncomp = static_cast<int>(rng.range(2, 3));
      const int nprocs = static_cast<int>(rng.range(2, 5));
      const bool overlap = rng.uniform() < 0.5;
      body += "Multi_Component_Begin\n";
      std::vector<std::string> names;
      if (overlap || ncomp > nprocs) {
        // Random (possibly overlapping) ranges covering rank 0 and the last
        // rank so required_size == nprocs.
        for (int c = 0; c < ncomp; ++c) {
          const std::string name = "comp" + std::to_string(name_counter++);
          int low, high;
          if (c == 0) {
            low = 0;
            high = nprocs - 1;  // guarantee full coverage incl. max rank
          } else {
            low = static_cast<int>(rng.range(0, nprocs - 1));
            high = static_cast<int>(rng.range(low, nprocs - 1));
          }
          body += name + " " + std::to_string(low) + " " +
                  std::to_string(high) + "\n";
          names.push_back(name);
        }
      } else {
        // Disjoint tiling of [0, nprocs).
        std::vector<int> cuts{0, nprocs};
        while (static_cast<int>(cuts.size()) < ncomp + 1) {
          const int cut = static_cast<int>(rng.range(1, nprocs - 1));
          if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) {
            cuts.push_back(cut);
          }
        }
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
          const std::string name = "comp" + std::to_string(name_counter++);
          body += name + " " + std::to_string(cuts[c]) + " " +
                  std::to_string(cuts[c + 1] - 1) + "\n";
          names.push_back(name);
        }
      }
      body += "Multi_Component_End\n";
      app.execs.push_back(TestExec{names, "", nprocs, nullptr});
      app.total_ranks += nprocs;
    }
  }
  app.registry_text = "BEGIN\n" + body + "END\n";
  return app;
}

/// The invariant checker every rank runs.
void check_invariants(Mph& h, const Comm& world) {
  const Directory& dir = h.directory();

  // (1) Directory consistency: every rank agrees (verify via checksum).
  std::string digest;
  for (const ComponentRecord& c : dir.components()) {
    digest += c.name + ":" + std::to_string(c.global_low) + "-" +
              std::to_string(c.global_high) + ";";
  }
  const std::vector<std::string> all =
      minimpi::allgather_strings(world, digest);
  for (const std::string& other : all) EXPECT_EQ(other, digest);

  // (2) Executables tile the world contiguously without overlap.
  int expected_base = 0;
  for (const ExecRecord& e : dir.execs()) {
    EXPECT_EQ(e.base, expected_base);
    expected_base += e.size;
  }
  EXPECT_EQ(expected_base, world.size());

  // (3) Component ranges live inside their executable.
  for (const ComponentRecord& c : dir.components()) {
    const ExecRecord& e = dir.execs()[static_cast<std::size_t>(c.exec_index)];
    EXPECT_GE(c.global_low, e.base);
    EXPECT_LE(c.global_high, e.up_limit());
  }

  // (4) My communicators: size and rank match the directory.
  const std::vector<std::string> mine = h.my_components();
  for (const std::string& name : mine) {
    const ComponentRecord& c = dir.component(name);
    const Comm& comm = h.comp_comm(name);
    EXPECT_EQ(comm.size(), c.size());
    EXPECT_EQ(comm.rank(), world.rank() - c.global_low);
    EXPECT_EQ(comm.global_of(comm.rank()), world.rank());
    // Group is exactly the directory's range, in order.
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(comm.group()[static_cast<std::size_t>(r)], c.global_low + r);
    }
  }

  // (5) Coverage: my component list equals the directory's covering set.
  std::vector<int> covering = dir.components_covering(world.rank());
  ASSERT_EQ(covering.size(), mine.size());
  for (std::size_t i = 0; i < covering.size(); ++i) {
    EXPECT_EQ(dir.component(covering[i]).name, mine[i]);
  }

  // (6) Exec communicator spans exactly my executable.
  const ExecRecord& my_exec =
      dir.execs()[static_cast<std::size_t>(h.exec_index())];
  EXPECT_EQ(h.exec_comm().size(), my_exec.size);
  EXPECT_EQ(h.exe_low_proc_limit(), my_exec.base);
  EXPECT_EQ(h.exe_up_proc_limit(), my_exec.up_limit());
}

}  // namespace

class HandshakeProperty : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, HandshakeProperty,
                         ::testing::Range(0, 12));

TEST_P(HandshakeProperty, RandomLayoutsSatisfyInvariants) {
  mph::util::Rng rng(1000 + static_cast<unsigned>(GetParam()));
  GeneratedApp app = generate_app(rng);
  SCOPED_TRACE(app.registry_text);
  for (TestExec& exec : app.execs) exec.body = check_invariants;
  run_mph_ok(app.registry_text, std::move(app.execs));
}

TEST_P(HandshakeProperty, FastAndGeneralPathsAgreeOnRandomSCME) {
  // Pure-SCME layouts: §6.1's one split is the general path's
  // single-block case, and the resulting layouts satisfy every invariant.
  mph::util::Rng rng(5000 + static_cast<unsigned>(GetParam()));
  const int execs = static_cast<int>(rng.range(2, 6));
  std::string registry = "BEGIN\n";
  std::vector<TestExec> job;
  for (int e = 0; e < execs; ++e) {
    registry += "c" + std::to_string(e) + "\n";
    job.push_back(TestExec{{"c" + std::to_string(e)},
                           "",
                           static_cast<int>(rng.range(1, 3)),
                           check_invariants});
  }
  registry += "END\n";
  run_mph_ok(registry, std::move(job));
}

TEST_P(HandshakeProperty, RandomEnsembleCarvings) {
  // Random instance counts and sizes; invariants: expansion into the right
  // component names, argument delivery, tiling, and directory agreement.
  mph::util::Rng rng(7000 + static_cast<unsigned>(GetParam()));
  const int instances = static_cast<int>(rng.range(2, 6));
  std::string registry = "BEGIN\nMulti_Instance_Begin\n";
  std::vector<int> sizes;
  int base = 0;
  for (int i = 0; i < instances; ++i) {
    const int size = static_cast<int>(rng.range(1, 3));
    sizes.push_back(size);
    registry += "Inst" + std::to_string(i + 1) + " " + std::to_string(base) +
                " " + std::to_string(base + size - 1) + " k=" +
                std::to_string(i * 7) + "\n";
    base += size;
  }
  registry += "Multi_Instance_End\nwatcher\nEND\n";
  SCOPED_TRACE(registry);

  const int total = base;
  run_mph_ok(
      registry,
      {TestExec{{}, "Inst", total,
                [&, sizes](Mph& h, const Comm& world) {
                  check_invariants(h, world);
                  // Which instance should I be?
                  int b = 0;
                  for (std::size_t i = 0; i < sizes.size(); ++i) {
                    const int size = sizes[i];
                    if (world.rank() >= b && world.rank() < b + size) {
                      EXPECT_EQ(h.comp_name(),
                                "Inst" + std::to_string(i + 1));
                      EXPECT_EQ(h.comp_comm().size(), size);
                      int k = -1;
                      EXPECT_TRUE(h.get_argument("k", k));
                      EXPECT_EQ(k, static_cast<int>(i) * 7);
                    }
                    b += size;
                  }
                }},
       TestExec{{"watcher"}, "", 1,
                [&](Mph& h, const Comm& world) {
                  check_invariants(h, world);
                  EXPECT_EQ(h.total_components(), instances + 1);
                }}});
}

TEST_P(HandshakeProperty, RandomJoinsOrderCorrectly) {
  // Random SCME layout; every pair of distinct components joins (in a
  // deterministic global order so the collective calls line up).
  mph::util::Rng rng(9000 + static_cast<unsigned>(GetParam()));
  const int execs = static_cast<int>(rng.range(2, 4));
  std::string registry = "BEGIN\n";
  std::vector<int> sizes;
  for (int e = 0; e < execs; ++e) {
    registry += "j" + std::to_string(e) + "\n";
    sizes.push_back(static_cast<int>(rng.range(1, 3)));
  }
  registry += "END\n";

  auto body = [](Mph& h, const Comm&) {
    const Directory& dir = h.directory();
    const int n = dir.total_components();
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b) continue;
        const ComponentRecord& ca = dir.component(a);
        const ComponentRecord& cb = dir.component(b);
        const bool mine = ca.covers_world_rank(h.global_proc_id()) ||
                          cb.covers_world_rank(h.global_proc_id());
        if (!mine) continue;
        const Comm joint = h.comm_join(ca.name, cb.name);
        EXPECT_EQ(joint.size(), ca.size() + cb.size());
        if (ca.covers_world_rank(h.global_proc_id())) {
          EXPECT_EQ(joint.rank(), h.global_proc_id() - ca.global_low);
        } else {
          EXPECT_EQ(joint.rank(),
                    ca.size() + h.global_proc_id() - cb.global_low);
        }
      }
    }
  };
  std::vector<TestExec> job;
  for (int e = 0; e < execs; ++e) {
    job.push_back(TestExec{{"j" + std::to_string(e)},
                           "",
                           sizes[static_cast<std::size_t>(e)],
                           body});
  }
  run_mph_ok(registry, std::move(job));
}
