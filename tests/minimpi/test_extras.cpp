// Extended substrate surface: exscan, reduce_scatter_block, waitany /
// test_all, sendrecv_replace — plus stress tests (message storms, deep
// communicator trees) that shake out races in the mailbox/context layer.
#include <gtest/gtest.h>

#include <numeric>

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

class ExtrasSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, ExtrasSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(ExtrasSweep, ExclusiveScan) {
  run_ok(GetParam(), [](const Comm& world) {
    const int below = exscan(world, world.rank() + 1, op::Sum{}, 0);
    // Sum of 1..r below me.
    EXPECT_EQ(below, world.rank() * (world.rank() + 1) / 2);
  });
}

TEST_P(ExtrasSweep, ExscanConsistentWithScan) {
  run_ok(GetParam(), [](const Comm& world) {
    const int mine = (world.rank() * 13) % 7 + 1;
    const int inclusive = scan(world, mine, op::Sum{});
    const int exclusive = exscan(world, mine, op::Sum{}, 0);
    EXPECT_EQ(inclusive, exclusive + mine);
  });
}

TEST_P(ExtrasSweep, ReduceScatterBlock) {
  const int n = GetParam();
  run_ok(n, [n](const Comm& world) {
    // values[r*2 + k] = contribution of my rank to rank r's block.
    std::vector<long> values(static_cast<std::size_t>(2 * n));
    for (int r = 0; r < n; ++r) {
      values[static_cast<std::size_t>(2 * r)] = world.rank() + r;
      values[static_cast<std::size_t>(2 * r + 1)] = world.rank() * r;
    }
    const std::vector<long> mine =
        reduce_scatter_block(world, std::span<const long>(values), 2,
                             op::Sum{});
    ASSERT_EQ(mine.size(), 2u);
    long expect0 = 0, expect1 = 0;
    for (int s = 0; s < n; ++s) {
      expect0 += s + world.rank();
      expect1 += s * world.rank();
    }
    EXPECT_EQ(mine[0], expect0);
    EXPECT_EQ(mine[1], expect1);
  });
}

TEST(Extras, SendrecvReplaceRing) {
  run_ok(4, [](const Comm& world) {
    std::vector<int> buf{world.rank() * 10, world.rank() * 10 + 1};
    const rank_t next = (world.rank() + 1) % world.size();
    const rank_t prev = (world.rank() + world.size() - 1) % world.size();
    const Status st = world.sendrecv_replace(std::span<int>(buf), next, 4,
                                             prev, 4);
    EXPECT_EQ(st.source, prev);
    EXPECT_EQ(buf[0], prev * 10);
    EXPECT_EQ(buf[1], prev * 10 + 1);
  });
}

TEST(Extras, WaitAnyReturnsFirstCompleted) {
  run_ok(3, [](const Comm& world) {
    if (world.rank() == 0) {
      int from1 = 0, from2 = 0;
      std::vector<Request> reqs;
      reqs.push_back(world.irecv(std::span<int>(&from1, 1), 1, 0));
      reqs.push_back(world.irecv(std::span<int>(&from2, 1), 2, 0));
      Status st;
      // Rank 2 sends immediately; rank 1 only after we release it, so the
      // first completion is deterministically index 1.
      const std::size_t first = Request::wait_any(reqs, &st);
      EXPECT_EQ(first, 1u);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(from2, 22);
      world.send(1, 1, 9);  // release rank 1
      const std::size_t second = Request::wait_any(reqs, &st);
      EXPECT_EQ(second, 0u);
      EXPECT_EQ(from1, 11);
      EXPECT_THROW((void)Request::wait_any(reqs), Error);
    } else if (world.rank() == 1) {
      int go = 0;
      world.recv(go, 0, 9);
      world.send(11, 0, 0);
    } else {
      world.send(22, 0, 0);
    }
  });
}

TEST(Extras, TestAll) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      std::vector<int> bufs(3);
      std::vector<Request> reqs;
      for (int i = 0; i < 3; ++i) {
        reqs.push_back(world.irecv(
            std::span<int>(&bufs[static_cast<std::size_t>(i)], 1), 1, i));
      }
      EXPECT_FALSE(Request::test_all(reqs));
      world.send(1, 1, 9);  // release the sender
      while (!Request::test_all(reqs)) std::this_thread::yield();
      Request::wait_all(reqs);
      EXPECT_EQ(bufs[2], 200);
    } else {
      int go = 0;
      world.recv(go, 0, 9);
      world.send(0, 0, 0);
      world.send(100, 0, 1);
      world.send(200, 0, 2);
    }
  });
}

// ---------------------------------------------------------------------------
// Communication statistics.
// ---------------------------------------------------------------------------

TEST(CommStats, CountsMessagesAndBytesExactly) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        if (world.rank() == 0) {
          const std::vector<double> payload(10, 1.0);  // 80 bytes
          world.send(std::span<const double>(payload), 1, 0);
          world.send(3, 1, 1);  // 4 bytes
        } else {
          std::vector<double> buf(10);
          world.recv(std::span<double>(buf), 0, 0);
          int v;
          world.recv(v, 0, 1);
        }
      },
      options);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  EXPECT_EQ(report.stats.messages, 2u);
  EXPECT_EQ(report.stats.payload_bytes, 84u);
  EXPECT_EQ(report.stats.contexts_allocated, 0u);
}

TEST(CommStats, SplitAllocatesOneContext) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = run_spmd(
      4,
      [](const Comm& world, const ExecEnv&) {
        const Comm sub = world.split(world.rank() % 2, world.rank());
        (void)sub;
      },
      options);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  // One split = one fresh context job-wide, agreed without a message, plus
  // the (color, key) allgather: a Bruck exchange of 2 rounds at 4 ranks,
  // one message per rank per round.
  EXPECT_EQ(report.stats.contexts_allocated, 1u);
  EXPECT_EQ(report.stats.messages, 8u);
}

TEST(CommStats, QuietJobHasZeroTraffic) {
  const JobReport report =
      run_spmd(3, [](const Comm&, const ExecEnv&) {});
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.stats.messages, 0u);
  EXPECT_EQ(report.stats.payload_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Stress tests.
// ---------------------------------------------------------------------------

TEST(Stress, RandomMessageStormAllToAll) {
  // Every rank sends a random number of random-size messages to random
  // peers (announced first), then receives exactly what it was promised.
  run_ok(6, [](const Comm& world) {
    const int n = world.size();
    mph::util::Rng rng(4242 + static_cast<unsigned>(world.rank()));
    std::vector<int> sends_to(static_cast<std::size_t>(n), 0);
    const int total_sends = static_cast<int>(rng.range(10, 40));
    std::vector<std::pair<int, int>> plan;  // (dest, payload words)
    for (int i = 0; i < total_sends; ++i) {
      const int dest = static_cast<int>(rng.below(static_cast<unsigned>(n)));
      const int words = static_cast<int>(rng.range(1, 64));
      plan.emplace_back(dest, words);
      ++sends_to[static_cast<std::size_t>(dest)];
    }
    // Announce counts with an alltoall.
    const std::vector<int> expect =
        alltoall(world, std::span<const int>(sends_to), 1);

    // Fire all messages; payload word = dest ^ words for verification.
    for (const auto& [dest, words] : plan) {
      std::vector<int> payload(static_cast<std::size_t>(words),
                               dest ^ words);
      world.send(std::span<const int>(payload), dest, 77);
    }
    // Drain: total expected messages, any source, any order.
    int expected_total = 0;
    for (int c : expect) expected_total += c;
    for (int i = 0; i < expected_total; ++i) {
      Status st;
      const std::vector<int> got = world.recv_vector<int>(any_source, 77, &st);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.front(),
                world.rank() ^ static_cast<int>(got.size()));
      for (int v : got) EXPECT_EQ(v, got.front());
    }
    // Nothing left over.
    barrier(world);
    EXPECT_FALSE(world.iprobe(any_source, any_tag).has_value());
  });
}

TEST(Stress, DeepSplitTreeIsolatesAllLevels) {
  // Repeatedly halve the world; at each level run a collective on the
  // current sub-communicator and a p2p exchange, verifying no cross-talk.
  run_ok(8, [](const Comm& world) {
    Comm comm = world;
    int level = 0;
    while (comm.size() > 1) {
      const int half = comm.rank() < comm.size() / 2 ? 0 : 1;
      const Comm child = comm.split(half, comm.rank());
      const int child_sum = allreduce_value(child, 1, op::Sum{});
      EXPECT_EQ(child_sum, child.size());
      // One message per level between child rank 0 and the last rank.
      if (child.size() > 1) {
        if (child.rank() == 0) child.send(level, child.size() - 1, level);
        if (child.rank() == child.size() - 1) {
          int v = -1;
          child.recv(v, 0, level);
          EXPECT_EQ(v, level);
        }
      }
      comm = child;
      ++level;
    }
    EXPECT_EQ(level, 3);  // log2(8)
  });
}

TEST(Stress, ManySimultaneousCommunicators) {
  // 32 communicators alive at once over the same ranks; traffic on each
  // must stay isolated (contexts do the separation).
  run_ok(4, [](const Comm& world) {
    std::vector<Comm> comms;
    for (int i = 0; i < 32; ++i) comms.push_back(world.dup());
    for (int i = 0; i < 32; ++i) {
      if (world.rank() == 0) comms[static_cast<std::size_t>(i)].send(i, 1, 0);
    }
    if (world.rank() == 1) {
      // Receive in reverse creation order: contexts, not arrival order,
      // must route each message.
      for (int i = 31; i >= 0; --i) {
        int v = -1;
        comms[static_cast<std::size_t>(i)].recv(v, 0, 0);
        EXPECT_EQ(v, i);
      }
    }
    barrier(world);
  });
}

TEST(Stress, ConcurrentIndependentJobs) {
  // Two whole MPMD jobs running simultaneously in one process (e.g. a test
  // harness or a job-in-job driver): Jobs share no state, so nothing may
  // cross.  Each job does distinctive collective work and checks it.
  auto run_job = [](int flavor) {
    JobOptions options;
    options.recv_timeout = std::chrono::seconds(60);
    const JobReport report = run_spmd(
        4,
        [flavor](const Comm& world, const ExecEnv&) {
          for (int i = 0; i < 25; ++i) {
            const int sum =
                allreduce_value(world, flavor * 1000 + world.rank(),
                                op::Sum{});
            ASSERT_EQ(sum, 4 * flavor * 1000 + 6);
          }
        },
        options);
    ASSERT_TRUE(report.ok) << report.abort_reason;
  };
  std::thread other([&] { run_job(2); });
  run_job(1);
  other.join();
}

TEST(Stress, CollectiveHammering) {
  // Many back-to-back mixed collectives; any tag/sequence bug deadlocks or
  // corrupts.
  run_ok(5, [](const Comm& world) {
    mph::util::Rng rng(99);  // same seed everywhere: same op sequence
    for (int i = 0; i < 60; ++i) {
      switch (rng.below(5)) {
        case 0: {
          int v = world.rank() == i % world.size() ? i : -1;
          bcast_value(world, v, i % world.size());
          EXPECT_EQ(v, i);
          break;
        }
        case 1:
          EXPECT_EQ(allreduce_value(world, 1, op::Sum{}), world.size());
          break;
        case 2: {
          const auto all = allgather_value(world, world.rank());
          EXPECT_EQ(all.back(), world.size() - 1);
          break;
        }
        case 3:
          barrier(world);
          break;
        case 4: {
          const int prefix = scan(world, 1, op::Sum{});
          EXPECT_EQ(prefix, world.rank() + 1);
          break;
        }
      }
    }
  });
}
