// Communicator creation: split (with keys, undefined, overlap-by-repetition),
// known-group split (no messages, early senders, mpicheck, context ids
// under verification), dup isolation, create from rank lists, ordered
// world creation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/comm.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/verify/verify.hpp"

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

// --- known-group construction (split_known) --------------------------------

namespace {
constexpr int kKnownRanks = 6;

/// Color and key of a split that exercises undefined, two groups, and
/// ordering by key against parent order.
int known_color(rank_t r) { return r % 3 == 2 ? undefined : r % 2; }
int known_key(rank_t r) { return -r; }

/// The group split(known_color, known_key) gives `me`, as parent ranks.
std::vector<rank_t> known_members(rank_t me) {
  std::vector<rank_t> members;
  if (known_color(me) == undefined) return members;
  for (rank_t r = 0; r < kKnownRanks; ++r) {
    if (known_color(r) == known_color(me)) members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [](rank_t a, rank_t b) {
    return known_key(a) < known_key(b);
  });
  return members;
}

/// Each rank's resulting group (world ranks), or {-1} for a null handle.
using Groups = std::vector<std::vector<rank_t>>;

JobReport run_creation(const std::function<Comm(const Comm&)>& create,
                       Groups* groups) {
  groups->assign(kKnownRanks, {});
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  return run_spmd(
      kKnownRanks,
      [&](const Comm& world, const ExecEnv&) {
        const Comm sub = create(world);
        (*groups)[static_cast<std::size_t>(world.rank())] =
            sub.valid() ? sub.group() : std::vector<rank_t>{-1};
      },
      options);
}
}  // namespace

TEST(CommSplitKnown, MatchesSplitAndSendsNoMessages) {
  Groups by_split;
  const JobReport split_report = run_creation(
      [](const Comm& world) {
        return world.split(known_color(world.rank()),
                           known_key(world.rank()));
      },
      &by_split);
  ASSERT_TRUE(split_report.ok) << split_report.first_error();

  Groups by_known;
  const JobReport known_report = run_creation(
      [](const Comm& world) {
        const std::vector<rank_t> members = known_members(world.rank());
        return world.split_known(members);
      },
      &by_known);
  ASSERT_TRUE(known_report.ok) << known_report.first_error();

  EXPECT_EQ(by_known, by_split);
  EXPECT_EQ(by_known[0], (std::vector<rank_t>{4, 0}));
  EXPECT_EQ(by_known[2], (std::vector<rank_t>{-1}));
  EXPECT_GT(split_report.stats.messages, 0u);
  EXPECT_EQ(known_report.stats.messages, 0u);
  EXPECT_EQ(known_report.stats.contexts_allocated,
            split_report.stats.contexts_allocated);
}

TEST(CommSplitKnown, DupAndCreateSendNoMessages) {
  Groups groups;
  const JobReport report = run_creation(
      [](const Comm& world) {
        const Comm copy = world.dup();
        const std::vector<rank_t> members{3, 1, 4};
        return copy.create(members);
      },
      &groups);
  ASSERT_TRUE(report.ok) << report.first_error();
  EXPECT_EQ(report.stats.messages, 0u);
  EXPECT_EQ(report.stats.contexts_allocated, 2u);
  EXPECT_EQ(groups[1], (std::vector<rank_t>{3, 1, 4}));
  EXPECT_EQ(groups[0], (std::vector<rank_t>{-1}));
}

TEST(CommSplitKnown, EarlySenderReachesLateBuilder) {
  // Rank 0 builds its handle and sends on it while rank 1 has not yet
  // built its own: the message waits in rank 1's mailbox under the agreed
  // context and is received once rank 1 catches up.  Both inputs build
  // the pairs {0, 1} and {2, 3}.  With split_known, rank 1 starts only
  // once rank 0 has sent.  split's allgather needs rank 1's block, so rank
  // 1 enters at once and is held inside instead: at 4 ranks the Bruck
  // exchange's last message to rank 1 comes from rank 3, and no other rank
  // waits for it, so delaying it lets rank 0 finish first.
  for (const bool known : {true, false}) {
    SCOPED_TRACE(known ? "split_known" : "split");
    std::atomic<bool> sent{false};
    EnvelopeMatch last_to_1;
    last_to_1.src = 3;
    last_to_1.dest = 1;
    JobOptions options;
    options.recv_timeout = std::chrono::seconds(30);
    options.faults.delay(last_to_1, std::chrono::milliseconds(500));
    const JobReport report = run_spmd(
        4,
        [&](const Comm& world, const ExecEnv&) {
          const rank_t r = world.rank();
          if (known && r == 1) {
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!sent.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
            ASSERT_TRUE(sent.load(std::memory_order_acquire))
                << "rank 0 could not finish without rank 1";
          }
          const std::vector<rank_t> pair{r / 2 * 2, r / 2 * 2 + 1};
          const Comm sub =
              known ? world.split_known(pair) : world.split(r / 2, r);
          if (r == 0) {
            sub.send(42, 1, 5);
            const Comm copy = sub.dup();
            copy.send(43, 1, 6);
            sent.store(true, std::memory_order_release);
            return;
          }
          const Comm copy = sub.dup();
          if (r != 1) return;
          EXPECT_TRUE(sent.load(std::memory_order_acquire))
              << "rank 1 built its handle before rank 0 sent";
          int v = 0;
          copy.recv(v, 0, 6);
          EXPECT_EQ(v, 43);
          sub.recv(v, 0, 5);
          EXPECT_EQ(v, 42);
        },
        options);
    ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                           << report.first_error();
  }
}

namespace {
/// Run `body` on two ranks with mpicheck's collective checker on; returns
/// the single mismatch it reports.
std::string known_group_mismatch(
    const std::function<void(const Comm&)>& body) {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  options.check.collectives = true;
  const JobReport report = run_spmd(
      2, [&](const Comm& world, const ExecEnv&) { body(world); }, options);
  EXPECT_FALSE(report.ok);
  if (!report.check.has_value() ||
      report.check->collective_mismatches.size() != 1) {
    ADD_FAILURE() << "expected one collective mismatch: "
                  << report.first_error();
    return {};
  }
  EXPECT_NE(report.first_error().find("collective_mismatch"),
            std::string::npos)
      << report.first_error();
  return report.check->collective_mismatches.front();
}
}  // namespace

TEST(CommSplitKnown, MpicheckReportsASkippedConstruction) {
  const std::string mismatch = known_group_mismatch([](const Comm& world) {
    const std::vector<rank_t> both{0, 1};
    if (world.rank() == 0) (void)world.split_known(both);
    int v = 0;
    bcast_value(world, v, 0);
  });
  EXPECT_NE(mismatch.find("split"), std::string::npos) << mismatch;
  EXPECT_NE(mismatch.find("bcast"), std::string::npos) << mismatch;
}

TEST(CommSplitKnown, MpicheckReportsAReorderedConstruction) {
  const std::string mismatch = known_group_mismatch([](const Comm& world) {
    const std::vector<rank_t> both{0, 1};
    if (world.rank() == 0) {
      (void)world.split_known(both);
      barrier(world);
    } else {
      barrier(world);
      (void)world.split_known(both);
    }
  });
  EXPECT_NE(mismatch.find("split"), std::string::npos) << mismatch;
  EXPECT_NE(mismatch.find("barrier"), std::string::npos) << mismatch;
}

TEST(CommSplitKnown, MpicheckReportsCreateListsThatDiffer) {
  // Each member of create builds its handle from its own list, so lists
  // that differ would give communicators disagreeing on rank order.
  const std::string mismatch = known_group_mismatch([](const Comm& world) {
    const std::vector<rank_t> order = world.rank() == 0
                                          ? std::vector<rank_t>{0, 1}
                                          : std::vector<rank_t>{1, 0};
    (void)world.create(order);
  });
  EXPECT_NE(mismatch.find("create"), std::string::npos) << mismatch;
  EXPECT_NE(mismatch.find("count="), std::string::npos) << mismatch;
}

TEST(CommSplitKnown, ContextIdsIgnoreScheduleUnderVerification) {
  // Ranks 1 and 2 race to rank 0's wildcard receive.  The winner is let
  // through first to dup its communicator with rank 0 ({0,1} or {0,2},
  // both led by rank 0), so the two schedules reach the two agreements in
  // opposite orders; the ids must not follow that order.
  constexpr tag_t kHello = 1;
  constexpr tag_t kGo = 2;
  constexpr tag_t kDone = 3;
  std::vector<std::vector<context_t>> runs;
  const auto scenario = [&](const JobOptions& options) {
    std::vector<context_t> ids(4, kWorldContext);
    JobReport report = run_spmd(
        3,
        [&](const Comm& world, const ExecEnv&) {
          const rank_t me = world.rank();
          const Comm left = world.split_known(
              me == 2 ? std::vector<rank_t>{} : std::vector<rank_t>{0, 1});
          const Comm right = world.split_known(
              me == 1 ? std::vector<rank_t>{} : std::vector<rank_t>{0, 2});
          if (me == 0) {
            int v = 0;
            const Status first = world.recv(v, any_source, kHello);
            for (const rank_t peer : {first.source, 3 - first.source}) {
              if (peer != first.source) world.recv(v, peer, kHello);
              world.send(1, peer, kGo);
              world.recv(v, peer, kDone);
            }
            ids[0] = left.dup().context();
            ids[3] = right.dup().context();
            return;
          }
          world.send(me, 0, kHello);
          int go = 0;
          world.recv(go, 0, kGo);
          ids[static_cast<std::size_t>(me)] =
              (me == 1 ? left : right).dup().context();
          world.send(1, 0, kDone);
        },
        options);
    runs.push_back(ids);
    return report;
  };
  verify::VerifyOptions options;
  options.job.recv_timeout = std::chrono::seconds(20);
  const verify::VerifyReport report = verify::verify(scenario, options);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.schedules_run, 2u);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0][0], runs[0][1]);
  EXPECT_EQ(runs[0][3], runs[0][2]);
  EXPECT_NE(runs[0][1], runs[0][2]);
}
