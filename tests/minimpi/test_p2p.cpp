// Point-to-point semantics over real rank-threads: typed send/recv,
// wildcards, probing, nonblocking requests, error paths.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/comm.hpp"
#include "src/minimpi/launcher.hpp"

using namespace minimpi;

namespace {
/// Run `entry` as an SPMD job and assert it succeeded.
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

TEST(P2P, ScalarRoundTrip) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      world.send(123.5, 1, 0);
    } else {
      double v = 0;
      const Status st = world.recv(v, 0, 0);
      EXPECT_EQ(v, 123.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 0);
      EXPECT_EQ(st.count<double>(), 1u);
    }
  });
}

TEST(P2P, VectorRoundTrip) {
  run_ok(2, [](const Comm& world) {
    std::vector<int> data(1000);
    if (world.rank() == 0) {
      std::iota(data.begin(), data.end(), 0);
      world.send(std::span<const int>(data), 1, 9);
    } else {
      const Status st = world.recv(std::span<int>(data), 0, 9);
      EXPECT_EQ(st.count<int>(), 1000u);
      EXPECT_EQ(data[0], 0);
      EXPECT_EQ(data[999], 999);
    }
  });
}

TEST(P2P, RecvVectorUnknownLength) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      const std::vector<long> data{10, 20, 30};
      world.send(std::span<const long>(data), 1, 1);
    } else {
      Status st;
      const std::vector<long> got = world.recv_vector<long>(any_source, 1, &st);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[2], 30);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(P2P, AnySourceReportsActualSender) {
  run_ok(4, [](const Comm& world) {
    if (world.rank() == 0) {
      std::vector<bool> seen(4, false);
      for (int i = 0; i < 3; ++i) {
        int payload = -1;
        const Status st = world.recv(payload, any_source, 5);
        EXPECT_EQ(payload, st.source * 10);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
      EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
    } else {
      world.send(world.rank() * 10, 0, 5);
    }
  });
}

TEST(P2P, MessageOrderPreservedPerSender) {
  run_ok(2, [](const Comm& world) {
    constexpr int kCount = 200;
    if (world.rank() == 0) {
      for (int i = 0; i < kCount; ++i) world.send(i, 1, 3);
    } else {
      for (int i = 0; i < kCount; ++i) {
        int v = -1;
        world.recv(v, 0, 3);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2P, TagsDisambiguate) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 1, 10);
      world.send(2, 1, 20);
    } else {
      int a = 0, b = 0;
      world.recv(b, 0, 20);  // receive out of send order by tag
      world.recv(a, 0, 10);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(P2P, SendrecvExchange) {
  run_ok(2, [](const Comm& world) {
    const int mine = world.rank() + 100;
    int theirs = -1;
    const rank_t peer = 1 - world.rank();
    world.sendrecv(std::span<const int>(&mine, 1), peer, 2,
                   std::span<int>(&theirs, 1), peer, 2);
    EXPECT_EQ(theirs, peer + 100);
  });
}

TEST(P2P, ProbeThenReceive) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
      world.send(std::span<const double>(data), 1, 7);
    } else {
      const Status st = world.probe(any_source, any_tag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      std::vector<double> buf(st.count<double>());
      world.recv(std::span<double>(buf), st.source, st.tag);
      EXPECT_EQ(buf.back(), 4.0);
    }
  });
}

TEST(P2P, IprobeNonBlocking) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      // Nothing has been sent to rank 0: iprobe must return empty.
      EXPECT_FALSE(world.iprobe(any_source, any_tag).has_value());
      world.send(1, 1, 0);
    } else {
      int v;
      world.recv(v, 0, 0);
    }
  });
}

TEST(P2P, NonblockingRoundTrip) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      std::vector<float> data{1.5f, 2.5f};
      Request s = world.isend(std::span<const float>(data), 1, 4);
      s.wait();
    } else {
      std::vector<float> buf(2);
      Request r = world.irecv(std::span<float>(buf), 0, 4);
      const Status st = r.wait();
      EXPECT_EQ(st.count<float>(), 2u);
      EXPECT_EQ(buf[1], 2.5f);
    }
  });
}

TEST(P2P, WaitAllCompletesMultipleIrecvs) {
  run_ok(3, [](const Comm& world) {
    if (world.rank() == 0) {
      std::vector<int> b1(1), b2(1);
      std::vector<Request> reqs;
      reqs.push_back(world.irecv(std::span<int>(b1), 1, 0));
      reqs.push_back(world.irecv(std::span<int>(b2), 2, 0));
      const auto statuses = Request::wait_all(reqs);
      EXPECT_EQ(b1[0], 11);
      EXPECT_EQ(b2[0], 22);
      EXPECT_EQ(statuses.size(), 2u);
      EXPECT_EQ(statuses[0].source, 1);
      EXPECT_EQ(statuses[1].source, 2);
    } else {
      world.send(world.rank() * 11, 0, 0);
    }
  });
}

TEST(P2P, RequestTestPolling) {
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      int buf = 0;
      Request r = world.irecv(std::span<int>(&buf, 1), 1, 0);
      Status st;
      while (!r.test(&st)) std::this_thread::yield();
      EXPECT_EQ(buf, 42);
      EXPECT_EQ(st.source, 1);
    } else {
      world.send(42, 0, 0);
    }
  });
}

TEST(P2P, DroppedRequestNeverWritesItsBuffer) {
  // A posted receive whose Request is destroyed unconsumed — dropped here,
  // left behind by a rank unwinding between irecv and wait in practice —
  // keeps its place in the matching order but must never write the buffer
  // it was posted with: that memory may already be freed.
  run_ok(2, [](const Comm& world) {
    if (world.rank() == 0) {
      std::vector<int> buf(4, -1);
      { const Request dropped = world.irecv(std::span<int>(buf), 1, 3); }
      barrier(world);  // the peer sends only once the Request is gone
      int marker = 0;
      world.recv(marker, 1, 4);  // sent after tag 3, so tag 3 has landed
      EXPECT_EQ(marker, 7);
      EXPECT_EQ(buf, std::vector<int>(4, -1));
      // The detached receive consumed the tag-3 message, in MPI order.
      EXPECT_FALSE(world.iprobe(1, 3).has_value());
    } else {
      barrier(world);
      const std::vector<int> payload{1, 2, 3, 4};
      world.send(std::span<const int>(payload), 0, 3);
      world.send(7, 0, 4);
    }
  });
}

TEST(P2P, InvalidRankThrows) {
  run_ok(2, [](const Comm& world) {
    EXPECT_THROW(world.send(1, 5, 0), Error);
    EXPECT_THROW(world.send(1, -1, 0), Error);
  });
}

TEST(P2P, InvalidUserTagThrows) {
  run_ok(1, [](const Comm& world) {
    EXPECT_THROW(world.send(1, 0, -3), Error);
    EXPECT_THROW(world.send(1, 0, kMaxUserTag + 1), Error);
  });
}

TEST(P2P, TruncationOnBlockingRecv) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  const JobReport report = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        if (world.rank() == 0) {
          const std::vector<int> big(10, 1);
          world.send(std::span<const int>(big), 1, 0);
        } else {
          int small = 0;
          world.recv(small, 0, 0);  // 4-byte buffer for a 40-byte message
        }
      },
      options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.first_error().find("truncation"), std::string::npos);
}

TEST(P2P, SelfSendReceive) {
  run_ok(1, [](const Comm& world) {
    world.send(7, 0, 0);  // eager buffering makes self-send safe
    int v = 0;
    world.recv(v, 0, 0);
    EXPECT_EQ(v, 7);
  });
}

TEST(P2P, LargeMessageIntegrity) {
  run_ok(2, [](const Comm& world) {
    constexpr std::size_t kCount = 1 << 18;  // 1 MiB of ints
    if (world.rank() == 0) {
      std::vector<int> data(kCount);
      std::iota(data.begin(), data.end(), 17);
      world.send(std::span<const int>(data), 1, 0);
    } else {
      std::vector<int> data(kCount);
      world.recv(std::span<int>(data), 0, 0);
      bool ok = true;
      for (std::size_t i = 0; i < kCount; ++i) {
        ok = ok && data[i] == static_cast<int>(i) + 17;
      }
      EXPECT_TRUE(ok);
    }
  });
}

TEST(P2P, DeadlockDetectedByTimeout) {
  JobOptions options;
  options.recv_timeout = std::chrono::milliseconds(100);
  const JobReport report = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        int v = 0;
        world.recv(v, 1 - world.rank(), 0);  // both wait, nobody sends
      },
      options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.abort_reason.find("timeout"), std::string::npos);
}
