// Communicator creation: split (with keys, undefined, overlap-by-repetition),
// dup isolation, create from rank lists, ordered world creation.
#include <gtest/gtest.h>

#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/comm.hpp"
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

TEST(CommSplit, EvenOddPartition) {
  run_ok(6, [](const Comm& world) {
    const Comm sub = world.split(world.rank() % 2, world.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Global ranks of my subgroup share my parity.
    for (rank_t g : sub.group()) {
      EXPECT_EQ(g % 2, world.rank() % 2);
    }
  });
}

TEST(CommSplit, KeyControlsOrdering) {
  run_ok(4, [](const Comm& world) {
    // Reverse the ordering via descending keys.
    const Comm sub = world.split(0, world.size() - world.rank());
    EXPECT_EQ(sub.rank(), world.size() - 1 - world.rank());
  });
}

TEST(CommSplit, EqualKeysFallBackToParentOrder) {
  run_ok(4, [](const Comm& world) {
    const Comm sub = world.split(0, /*key=*/7);
    EXPECT_EQ(sub.rank(), world.rank());
  });
}

TEST(CommSplit, UndefinedYieldsNullComm) {
  run_ok(4, [](const Comm& world) {
    const int color = world.rank() == 0 ? undefined : 1;
    const Comm sub = world.split(color, 0);
    if (world.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(CommSplit, TrafficIsolatedFromParent) {
  run_ok(4, [](const Comm& world) {
    const Comm sub = world.split(world.rank() / 2, world.rank());
    // Same local rank numbers exist in both halves; a message in one
    // sub-communicator must never be received in the other or in world.
    if (sub.rank() == 0) {
      sub.send(world.rank(), 1, 0);
    } else {
      int v = -1;
      sub.recv(v, 0, 0);
      EXPECT_EQ(v, world.rank() - 1);  // partner is the even rank just below
    }
    EXPECT_FALSE(world.iprobe(any_source, any_tag).has_value());
  });
}

TEST(CommSplit, NestedSplits) {
  run_ok(8, [](const Comm& world) {
    const Comm half = world.split(world.rank() / 4, world.rank());
    const Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    const int expected_leader = (world.rank() / 2) * 2;
    EXPECT_EQ(quarter.group()[0], expected_leader);
  });
}

TEST(CommSplit, RepeatedSplitsCreateOverlappingViews) {
  // The MPH §6.2 pattern: overlapping component communicators are created
  // by repeated split calls.  Both views coexist and stay isolated.
  run_ok(4, [](const Comm& world) {
    // View A: ranks 0..2, view B: ranks 1..3 (overlap on 1,2).
    const Comm a = world.split(world.rank() <= 2 ? 1 : undefined, world.rank());
    const Comm b = world.split(world.rank() >= 1 ? 1 : undefined, world.rank());
    if (a.valid() && b.valid()) {
      EXPECT_EQ(a.size(), 3);
      EXPECT_EQ(b.size(), 3);
      EXPECT_NE(a.context(), b.context());
    }
    if (world.rank() == 0) {
      ASSERT_TRUE(a.valid());
      EXPECT_FALSE(b.valid());
      a.send(100, 1, 0);
    }
    if (world.rank() == 1) {
      int v = -1;
      a.recv(v, 0, 0);
      EXPECT_EQ(v, 100);
      b.send(200, 2, 0);  // b-local 2 is world rank 3
    }
    if (world.rank() == 3) {
      int v = -1;
      b.recv(v, 0, 0);
      EXPECT_EQ(v, 200);
    }
  });
}

TEST(CommDup, FreshContextSameGroup) {
  run_ok(3, [](const Comm& world) {
    const Comm copy = world.dup();
    EXPECT_EQ(copy.size(), world.size());
    EXPECT_EQ(copy.rank(), world.rank());
    EXPECT_NE(copy.context(), world.context());
    // Message sent on dup is invisible to world.
    if (world.rank() == 0) copy.send(1, 1, 0);
    if (world.rank() == 1) {
      EXPECT_FALSE(world.iprobe(any_source, any_tag).has_value());
      int v;
      copy.recv(v, 0, 0);
    }
  });
}

TEST(CommCreate, ExplicitOrderedGroup) {
  run_ok(5, [](const Comm& world) {
    // New communicator with ranks {3, 1, 4} in that order.
    const std::vector<rank_t> members{3, 1, 4};
    const Comm sub = world.create(std::span<const rank_t>(members));
    if (world.rank() == 3) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.rank(), 0);
    } else if (world.rank() == 1) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.rank(), 1);
    } else if (world.rank() == 4) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.rank(), 2);
    } else {
      EXPECT_FALSE(sub.valid());
    }
  });
}

TEST(CommCreateOrderedWorld, OnlyMembersParticipate) {
  run_ok(6, [](const Comm& world) {
    // Ranks {4, 0, 2} build a communicator without involving 1, 3, 5.
    const std::vector<rank_t> members{4, 0, 2};
    const bool mine =
        world.rank() == 4 || world.rank() == 0 || world.rank() == 2;
    if (mine) {
      const Comm joint =
          world.create_ordered_world(std::span<const rank_t>(members));
      ASSERT_TRUE(joint.valid());
      EXPECT_EQ(joint.size(), 3);
      EXPECT_EQ(joint.group()[0], 4);
      // Exercise the new communicator: leader broadcasts a value.
      int v = joint.rank() == 0 ? 314 : 0;
      bcast_value(joint, v, 0);
      EXPECT_EQ(v, 314);
    }
    // Non-members do nothing — and must not be required to participate.
  });
}

TEST(CommCreateOrderedWorld, TwoConcurrentDisjointJoins) {
  run_ok(4, [](const Comm& world) {
    const std::vector<rank_t> left{0, 1};
    const std::vector<rank_t> right{2, 3};
    const auto& mine = world.rank() < 2 ? left : right;
    const Comm joint =
        world.create_ordered_world(std::span<const rank_t>(mine));
    ASSERT_TRUE(joint.valid());
    EXPECT_EQ(joint.size(), 2);
    const int expect = world.rank() < 2 ? 1 : 2;
    int v = joint.rank() == 0 ? expect : 0;
    bcast_value(joint, v, 0);
    EXPECT_EQ(v, expect);
  });
}

TEST(CommSplit, SingleRankWorld) {
  run_ok(1, [](const Comm& world) {
    const Comm sub = world.split(0, 0);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 1);
    const Comm none = world.split(undefined, 0);
    EXPECT_FALSE(none.valid());
  });
}

TEST(Comm, RankTranslation) {
  run_ok(4, [](const Comm& world) {
    const Comm odd = world.split(world.rank() % 2 == 1 ? 1 : undefined,
                                 world.rank());
    if (odd.valid()) {
      EXPECT_EQ(odd.global_of(0), 1);
      EXPECT_EQ(odd.global_of(1), 3);
      EXPECT_EQ(odd.local_of(3), 1);
      EXPECT_EQ(odd.local_of(0), -1);  // world rank 0 is not a member
    }
  });
}

TEST(Comm, NullCommThrows) {
  const Comm null;
  EXPECT_FALSE(null.valid());
  EXPECT_THROW((void)null.rank(), Error);
  EXPECT_THROW((void)null.size(), Error);
  EXPECT_THROW(null.send(1, 0, 0), Error);
}
