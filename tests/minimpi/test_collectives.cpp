// Collective correctness across rank counts, including non-power-of-two
// sizes and random data checked against sequential references.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/util/rng.hpp"

using namespace minimpi;

namespace {
void run_ok(int nprocs, std::function<void(const Comm&)> entry) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(60);
  const JobReport report = run_spmd(
      nprocs, [&](const Comm& world, const ExecEnv&) { entry(world); },
      options);
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}
}  // namespace

/// Sweep collective behaviour across communicator sizes, deliberately
/// including 1, primes, and non-powers-of-two (tree edge cases).
class CollectiveSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST_P(CollectiveSweep, BarrierCompletes) {
  run_ok(GetParam(), [](const Comm& world) {
    for (int i = 0; i < 3; ++i) barrier(world);
  });
}

TEST_P(CollectiveSweep, BcastFromEveryRoot) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(5, world.rank() == root ? root + 1 : -1);
      bcast(world, std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root + 1);
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumMatchesReference) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    mph::util::Rng rng(900 + static_cast<unsigned>(world.rank()));
    std::vector<long> mine(8);
    for (auto& v : mine) v = rng.range(-100, 100);
    std::vector<long> result;
    reduce(world, std::span<const long>(mine), result, op::Sum{}, 0);

    // Reference: gather everything and fold sequentially.
    const std::vector<long> all = gather(world, std::span<const long>(mine), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(result.size(), 8u);
      for (std::size_t i = 0; i < 8; ++i) {
        long expect = 0;
        for (int r = 0; r < n; ++r) {
          expect += all[static_cast<std::size_t>(r) * 8 + i];
        }
        EXPECT_EQ(result[i], expect) << "element " << i;
      }
    } else {
      EXPECT_TRUE(result.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMinMax) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    const int mine = (world.rank() * 37) % n;  // a permutation-ish spread
    int expect_max = 0;
    for (int r = 0; r < n; ++r) expect_max = std::max(expect_max, (r * 37) % n);
    EXPECT_EQ(allreduce_value(world, mine, op::Max{}), expect_max);
    EXPECT_EQ(allreduce_value(world, world.rank() + 1, op::Min{}), 1);
    EXPECT_EQ(allreduce_value(world, world.rank(), op::Sum{}),
              n * (n - 1) / 2);
  });
}

TEST_P(CollectiveSweep, GatherOrdersByRank) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    const std::vector<int> mine{world.rank() * 2, world.rank() * 2 + 1};
    const std::vector<int> all = gather(world, std::span<const int>(mine), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * n));
      for (int i = 0; i < 2 * n; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllgatherMatchesGatherEverywhere) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    const std::vector<double> mine{world.rank() + 0.5};
    const std::vector<double> all =
        allgather(world, std::span<const double>(mine));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r + 0.5);
    }
  });
}

TEST_P(CollectiveSweep, AllgathervVariableBlocks) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    // Rank r contributes r+1 copies of the value r.
    const std::vector<int> mine(static_cast<std::size_t>(world.rank()) + 1,
                                world.rank());
    std::vector<std::size_t> counts;
    const std::vector<int> all =
        allgatherv(world, std::span<const int>(mine), &counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(n));
    std::size_t offset = 0;
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(counts[static_cast<std::size_t>(r)],
                static_cast<std::size_t>(r) + 1);
      for (std::size_t i = 0; i <= static_cast<std::size_t>(r); ++i) {
        EXPECT_EQ(all[offset + i], r);
      }
      offset += static_cast<std::size_t>(r) + 1;
    }
    EXPECT_EQ(all.size(), offset);
  });
}

TEST_P(CollectiveSweep, ScatterDistributesBlocks) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    std::vector<int> everything;
    if (world.rank() == 0) {
      everything.resize(static_cast<std::size_t>(3 * n));
      std::iota(everything.begin(), everything.end(), 0);
    }
    const std::vector<int> mine =
        scatter(world, std::span<const int>(everything), 3, 0);
    ASSERT_EQ(mine.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)], world.rank() * 3 + i);
    }
  });
}

TEST_P(CollectiveSweep, AlltoallTransposes) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    // values[dest] = 100*me + dest; after alltoall, result[src] = 100*src + me.
    std::vector<int> values(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      values[static_cast<std::size_t>(d)] = 100 * world.rank() + d;
    }
    const std::vector<int> result =
        alltoall(world, std::span<const int>(values), 1);
    ASSERT_EQ(result.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(result[static_cast<std::size_t>(s)], 100 * s + world.rank());
    }
  });
}

TEST_P(CollectiveSweep, InclusiveScan) {
  const int n = GetParam();
  run_ok(n, [](const Comm& world) {
    const int mine = world.rank() + 1;
    const int prefix = scan(world, mine, op::Sum{});
    EXPECT_EQ(prefix, (world.rank() + 1) * (world.rank() + 2) / 2);
  });
}

TEST_P(CollectiveSweep, StringBroadcastAndAllgather) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    std::string text =
        world.rank() == 0 ? "BEGIN\natmosphere\nocean\nEND\n" : "";
    bcast_string(world, text, 0);
    EXPECT_EQ(text, "BEGIN\natmosphere\nocean\nEND\n");

    const std::string mine = "comp" + std::to_string(world.rank());
    const std::vector<std::string> all = allgather_strings(world, mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], "comp" + std::to_string(r));
    }
  });
}

TEST(Collectives, MinLocFindsOwner) {
  run_ok(5, [](const Comm& world) {
    const op::ValueLoc<double> mine{
        (world.rank() == 3) ? -1.0 : static_cast<double>(world.rank()),
        world.rank()};
    const auto best = allreduce_value(world, mine, op::MinLoc{});
    EXPECT_DOUBLE_EQ(best.value, -1.0);
    EXPECT_EQ(best.location, 3);
  });
}

TEST(Collectives, MaxLocTieBreaksLowestRank) {
  run_ok(4, [](const Comm& world) {
    const op::ValueLoc<int> mine{7, world.rank()};  // all equal
    const auto best = allreduce_value(world, mine, op::MaxLoc{});
    EXPECT_EQ(best.value, 7);
    EXPECT_EQ(best.location, 0);
  });
}

TEST(Collectives, EmptyBcastBytes) {
  run_ok(3, [](const Comm& world) {
    std::vector<std::byte> payload;
    if (world.rank() == 0) payload.clear();
    bcast_bytes(world, payload, 0);
    EXPECT_TRUE(payload.empty());
  });
}

TEST(Collectives, SkewToleranceConsecutiveCollectives) {
  // Back-to-back collectives on the same communicator must not cross-match
  // even when ranks proceed at very different speeds.
  run_ok(4, [](const Comm& world) {
    for (int iter = 0; iter < 20; ++iter) {
      int v = world.rank() == (iter % 4) ? iter : -1;
      bcast_value(world, v, iter % 4);
      EXPECT_EQ(v, iter);
      const int total = allreduce_value(world, 1, op::Sum{});
      EXPECT_EQ(total, 4);
    }
  });
}

TEST(Collectives, SubCommunicatorCollectives) {
  run_ok(6, [](const Comm& world) {
    const Comm sub = world.split(world.rank() % 2, world.rank());
    const int sum = allreduce_value(sub, world.rank(), op::Sum{});
    // Even ranks: 0+2+4 = 6; odd ranks: 1+3+5 = 9.
    EXPECT_EQ(sum, world.rank() % 2 == 0 ? 6 : 9);
  });
}
