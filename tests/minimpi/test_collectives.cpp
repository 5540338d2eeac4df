// Collective correctness across rank counts, including non-power-of-two
// sizes and random data checked against sequential references.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
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

/// Messages the whole job sent while every rank ran `entry` once.
std::uint64_t job_messages(int nprocs,
                           std::function<void(const Comm&)> entry) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(60);
  const JobReport report = run_spmd(
      nprocs, [&](const Comm& world, const ExecEnv&) { entry(world); },
      options);
  EXPECT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
  return report.stats.messages;
}

/// ⌈log2 n⌉: the number of Bruck rounds over n ranks.
std::uint64_t ceil_log2(int n) {
  std::uint64_t rounds = 0;
  for (int d = 1; d < n; d <<= 1) ++rounds;
  return rounds;
}

/// Rank r's string in the order tests: rank 0 and every third rank send
/// nothing, rank 1 one 64 KiB block, the rest a short rank-specific text.
std::string ordered_string(int r) {
  if (r % 3 == 0) return {};
  if (r == 1) {
    std::string big(64 * 1024, '\0');
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<char>('a' + i % 26);
    }
    return big;
  }
  return "rank" + std::string(static_cast<std::size_t>(r), '#') +
         std::to_string(r);
}

/// Rank r's allgatherv block: r ints (none on rank 0), except that the
/// last of several ranks sends 64 KiB.
std::vector<int> ordered_block(int r, int n) {
  const std::size_t count = (n > 1 && r == n - 1)
                                ? 64 * 1024 / sizeof(int)
                                : static_cast<std::size_t>(r);
  std::vector<int> block(count);
  for (std::size_t i = 0; i < count; ++i) {
    block[i] = r * 100000 + static_cast<int>(i);
  }
  return block;
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

/// Bruck exchange and one-pass broadcast: order and exact message counts,
/// including n = 1, primes and the partial last round of a
/// non-power-of-two n.
class SelfSizedSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, SelfSizedSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 16));

TEST_P(SelfSizedSweep, AllgatherStringsInRankOrderWithBruckCount) {
  const int n = GetParam();
  const std::uint64_t messages = job_messages(n, [n](const Comm& world) {
    const std::vector<std::string> all =
        allgather_strings(world, ordered_string(world.rank()));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], ordered_string(r))
          << "block " << r << " on rank " << world.rank();
    }
  });
  EXPECT_EQ(messages, static_cast<std::uint64_t>(n) * ceil_log2(n));
}

TEST_P(SelfSizedSweep, AllgathervInRankOrderWithBruckCount) {
  const int n = GetParam();
  const std::uint64_t messages = job_messages(n, [n](const Comm& world) {
    const std::vector<int> mine = ordered_block(world.rank(), n);
    std::vector<std::size_t> counts;
    const std::vector<int> all =
        allgatherv(world, std::span<const int>(mine), &counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(n));
    std::size_t offset = 0;
    for (int r = 0; r < n; ++r) {
      const std::vector<int> expect = ordered_block(r, n);
      ASSERT_EQ(counts[static_cast<std::size_t>(r)], expect.size());
      ASSERT_LE(offset + expect.size(), all.size());
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                             all.begin() + static_cast<std::ptrdiff_t>(offset)))
          << "block " << r << " on rank " << world.rank();
      offset += expect.size();
    }
    EXPECT_EQ(all.size(), offset);
  });
  EXPECT_EQ(messages, static_cast<std::uint64_t>(n) * ceil_log2(n));
}

TEST_P(SelfSizedSweep, AllgatherInRankOrderWithBruckCount) {
  const int n = GetParam();
  const std::uint64_t messages = job_messages(n, [n](const Comm& world) {
    const std::vector<double> mine{world.rank() + 0.25, world.rank() + 0.5,
                                   world.rank() + 0.75};
    const std::vector<double> all =
        allgather(world, std::span<const double>(mine));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(3 * n));
    for (int r = 0; r < n; ++r) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(3 * r + i)],
                  r + 0.25 * (i + 1));
      }
    }
    EXPECT_TRUE(allgather(world, std::span<const double>()).empty());
  });
  // Two allgathers, the second of empty blocks.
  EXPECT_EQ(messages, 2 * static_cast<std::uint64_t>(n) * ceil_log2(n));
}

TEST_P(SelfSizedSweep, BcastStringIsOnePassOfOneMessagePerMember) {
  const int n = GetParam();
  for (const std::string& text :
       {std::string(), ordered_string(1), std::string("BEGIN\nocean\nEND\n")}) {
    const rank_t root = n - 1;
    const std::uint64_t messages =
        job_messages(n, [&text, root](const Comm& world) {
          std::string got = world.rank() == root ? text : "stale";
          bcast_string(world, got, root);
          EXPECT_EQ(got, text) << "on rank " << world.rank();
          std::vector<std::byte> bytes(
              world.rank() == root ? text.size() : 3);
          if (world.rank() == root && !text.empty()) {
            std::memcpy(bytes.data(), text.data(), text.size());
          }
          bcast_bytes(world, bytes, root);
          EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()),
                    text)
              << "on rank " << world.rank();
        });
    // One bcast_string plus one bcast_bytes.
    EXPECT_EQ(messages, 2 * static_cast<std::uint64_t>(n - 1))
        << text.size() << "-byte text";
  }
}

TEST(SelfSizedRecords, HostileMessagesThrowTruncationNamingOpAndSource) {
  // Well-formed: two records, 3 bytes and 0 bytes.
  std::vector<std::byte> good;
  detail::append_record(good, std::as_bytes(std::span("abc", 3)));
  detail::append_record(good, {});
  std::vector<std::size_t> ends;
  detail::parse_records(good, 2, "allgatherv", 4, 100, ends);
  EXPECT_EQ(ends, (std::vector<std::size_t>{111, 119}));

  const auto fails = [](std::vector<std::byte> message, std::size_t records,
                        const std::string& why) {
    std::vector<std::size_t> ends;
    try {
      detail::parse_records(message, records, "allgatherv", 4, 0, ends);
      ADD_FAILURE() << "accepted a hostile message: " << why;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::truncation);
      const std::string what = e.what();
      EXPECT_NE(what.find("allgatherv"), std::string::npos) << what;
      EXPECT_NE(what.find("from rank 4"), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  };
  // Every cut of the good message is short somewhere.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const auto end = good.begin() + static_cast<std::ptrdiff_t>(cut);
    fails(std::vector<std::byte>(good.begin(), end), 2, "bytes from rank 4");
  }
  fails(std::vector<std::byte>(good.begin(), good.begin() + 5), 2,
        "inside the length header of record 1 of 2");
  fails(std::vector<std::byte>(good.begin(), good.begin() + 10), 2,
        "too short for record 1 of 2");
  // A header claiming more than the message holds, up to 2^64 - 1.
  for (const detail::RecordLength claim :
       {detail::RecordLength{12}, ~detail::RecordLength{0},
        ~detail::RecordLength{0} - 7}) {
    std::vector<std::byte> lying(sizeof claim + 4);
    std::memcpy(lying.data(), &claim, sizeof claim);
    fails(lying, 1, "whose header says " + std::to_string(claim));
  }
  // Overlong: a whole extra record, or stray bytes after the last one.
  fails(good, 1, "carries 8 bytes past its last record");
  std::vector<std::byte> trailing = good;
  trailing.push_back(std::byte{7});
  fails(trailing, 2, "carries 1 bytes past its last record");
}

TEST(SelfSizedRecords, AllgatherRejectsARankWithAnotherCount) {
  // Without mpicheck nothing compares counts up front; the self-sized
  // blocks still show the odd one out, on every rank.
  const JobReport report = run_spmd(3, [](const Comm& world, const ExecEnv&) {
    const std::vector<double> mine(world.rank() == 2 ? 2 : 1, 1.0);
    (void)allgather(world, std::span<const double>(mine));
  });
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.first_error().find("truncation"), std::string::npos)
      << report.first_error();
  EXPECT_NE(report.first_error().find("allgather: "), std::string::npos)
      << report.first_error();
  EXPECT_NE(report.first_error().find("rank "), std::string::npos)
      << report.first_error();
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
