// Pooled rank threads: back-to-back jobs reuse the same workers, a reused
// worker looks like a new thread to the next rank, the pool grows for
// nested and concurrent jobs instead of deadlocking, and a rank whose
// thread cannot start fails its job instead of hanging it.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/util/diagnostics.hpp"

using namespace minimpi;

namespace {

JobOptions fast_options() {
  JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  return options;
}

/// The thread id each rank of one SPMD job ran on, by world rank.
std::vector<std::thread::id> rank_threads(int nprocs) {
  std::vector<std::thread::id> ids(static_cast<std::size_t>(nprocs));
  const JobReport report = run_spmd(
      nprocs,
      [&](const Comm& world, const ExecEnv&) {
        ids[static_cast<std::size_t>(world.rank())] =
            std::this_thread::get_id();
        barrier(world);
      },
      fast_options());
  EXPECT_TRUE(report.ok) << report.abort_reason;
  return ids;
}

cpu_set_t own_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof mask, &mask), 0);
  return mask;
}

/// What a test rank-exit hook saw on the last rank that ended.
std::mutex g_seen_mutex;
std::vector<std::string> g_labels_at_exit;

void record_label_at_exit() noexcept {
  const std::lock_guard<std::mutex> lock(g_seen_mutex);
  g_labels_at_exit.emplace_back(mph::util::thread_label());
}

}  // namespace

TEST(RankPool, RankOfSequentialJobsRunsOnTheSameThread) {
  const std::vector<std::thread::id> first = rank_threads(4);
  const std::vector<std::thread::id> second = rank_threads(4);
  EXPECT_EQ(first, second);
  // Four ranks that met at a barrier ran on four distinct threads, none of
  // them the caller's.
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NE(first[i], std::this_thread::get_id());
    for (std::size_t j = i + 1; j < first.size(); ++j) {
      EXPECT_NE(first[i], first[j]);
    }
  }
  // A smaller job takes the lowest-index workers: the same first two.
  const std::vector<std::thread::id> small = rank_threads(2);
  EXPECT_EQ(small[0], first[0]);
  EXPECT_EQ(small[1], first[1]);
}

/// Pin the calling thread to the first CPU of its mask; returns the new
/// mask.
cpu_set_t pin_to_first_cpu() {
  const cpu_set_t mask = own_mask();
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &mask)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  EXPECT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one), 0);
  return one;
}

/// Installs a rank-exit hook for one test and puts the previous one back.
struct ScopedExitHook {
  explicit ScopedExitHook(RankExitHook hook)
      : previous(set_rank_exit_hook(hook)) {}
  ~ScopedExitHook() { set_rank_exit_hook(previous); }
  RankExitHook previous;
};

TEST(RankPool, PinnedAndRelabelledRankLeavesNextRankFresh) {
  const ScopedExitHook hook(&record_label_at_exit);
  cpu_set_t original;
  CPU_ZERO(&original);
  std::thread::id pinned_on;
  const JobReport pinning = run_spmd(
      1,
      [&](const Comm&, const ExecEnv&) {
        pinned_on = std::this_thread::get_id();
        original = own_mask();
        pin_to_first_cpu();
        mph::util::set_thread_label("pinned");
      },
      fast_options());
  ASSERT_TRUE(pinning.ok) << pinning.abort_reason;
  {
    const std::lock_guard<std::mutex> lock(g_seen_mutex);
    ASSERT_FALSE(g_labels_at_exit.empty());
    EXPECT_EQ(g_labels_at_exit.back(), "-");
  }

  bool same_mask = false;
  std::thread::id reused_on;
  std::string label;
  const JobReport next = run_spmd(
      1,
      [&](const Comm&, const ExecEnv&) {
        reused_on = std::this_thread::get_id();
        const cpu_set_t now = own_mask();
        same_mask = CPU_EQUAL(&now, &original);
        label = std::string(mph::util::thread_label());
      },
      fast_options());
  ASSERT_TRUE(next.ok) << next.abort_reason;
  EXPECT_EQ(reused_on, pinned_on);
  EXPECT_TRUE(same_mask);
  EXPECT_EQ(label, "rank 0 (spmd)");
}

TEST(RankPool, RankExitHookRunsAfterAThrowingRank) {
  const ScopedExitHook hook(&record_label_at_exit);
  std::size_t before = 0;
  {
    const std::lock_guard<std::mutex> lock(g_seen_mutex);
    before = g_labels_at_exit.size();
  }
  const JobReport report = run_spmd(
      2,
      [](const Comm& world, const ExecEnv&) {
        if (world.rank() == 1) throw std::runtime_error("boom");
        barrier(world);
      },
      fast_options());
  EXPECT_FALSE(report.ok);
  const std::lock_guard<std::mutex> lock(g_seen_mutex);
  EXPECT_EQ(g_labels_at_exit.size(), before + 2);
}

TEST(RankPool, NestedJobInsideARankCompletes) {
  std::mutex mutex;
  std::vector<int> inner_sums;
  std::vector<std::thread::id> outer_ids(2);
  std::vector<std::thread::id> inner_ids;
  const JobReport outer = run_spmd(
      2,
      [&](const Comm& world, const ExecEnv&) {
        outer_ids[static_cast<std::size_t>(world.rank())] =
            std::this_thread::get_id();
        // Both outer ranks hold their workers before any inner rank is
        // dispatched; otherwise an inner rank could finish on a worker that
        // the pool only then hands to a late outer rank.
        barrier(world);
        const JobReport inner = run_spmd(
            3,
            [&](const Comm& inner_world, const ExecEnv&) {
              const int sum = allreduce_value(inner_world, 1, op::Sum{});
              const std::lock_guard<std::mutex> lock(mutex);
              inner_sums.push_back(sum);
              inner_ids.push_back(std::this_thread::get_id());
            },
            fast_options());
        EXPECT_TRUE(inner.ok) << inner.abort_reason;
        barrier(world);
      },
      fast_options());
  ASSERT_TRUE(outer.ok) << outer.abort_reason;
  EXPECT_EQ(inner_sums, std::vector<int>(6, 3));
  // The inner ranks ran on workers the pool started for them, never on a
  // thread still busy with an outer rank.
  for (const std::thread::id id : inner_ids) {
    EXPECT_NE(id, outer_ids[0]);
    EXPECT_NE(id, outer_ids[1]);
  }
}

TEST(RankPool, JobLaunchedFromAPinnedRankDoesNotPinLaterJobs) {
  const cpu_set_t caller = own_mask();
  if (CPU_COUNT(&caller) < 2) GTEST_SKIP() << "needs two CPUs in the mask";
  // One pinned rank launches a 2-rank job: the pool grows to three workers,
  // two of them started from the pinned rank.
  std::vector<char> inner_pinned(2, 0);
  const JobReport outer = run_spmd(
      1,
      [&](const Comm&, const ExecEnv&) {
        const cpu_set_t pinned = pin_to_first_cpu();
        const JobReport inner = run_spmd(
            2,
            [&](const Comm& world, const ExecEnv&) {
              const cpu_set_t now = own_mask();
              inner_pinned[static_cast<std::size_t>(world.rank())] =
                  CPU_EQUAL(&now, &pinned) ? 1 : 0;
              barrier(world);
            },
            fast_options());
        EXPECT_TRUE(inner.ok) << inner.abort_reason;
      },
      fast_options());
  ASSERT_TRUE(outer.ok) << outer.abort_reason;
  // The nested job's ranks started with their launcher's mask, as threads
  // it created would have.
  EXPECT_EQ(inner_pinned, std::vector<char>(2, 1));

  // A later job from this thread runs on the same three workers, each rank
  // with this thread's mask.
  std::vector<char> later_free(3, 0);
  const JobReport later = run_spmd(
      3,
      [&](const Comm& world, const ExecEnv&) {
        const cpu_set_t now = own_mask();
        later_free[static_cast<std::size_t>(world.rank())] =
            CPU_EQUAL(&now, &caller) ? 1 : 0;
        barrier(world);
      },
      fast_options());
  ASSERT_TRUE(later.ok) << later.abort_reason;
  EXPECT_EQ(later_free, std::vector<char>(3, 1));
}

TEST(RankPool, RankWhoseThreadCannotStartFailsTheJob) {
  rank_threads(2);  // the pool now has two workers
  // A default stack larger than the address space: no new thread starts.
  pthread_attr_t saved;
  ASSERT_EQ(pthread_getattr_default_np(&saved), 0);
  pthread_attr_t huge;
  ASSERT_EQ(pthread_attr_init(&huge), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&huge, std::size_t{1} << 50), 0);
  ASSERT_EQ(pthread_setattr_default_np(&huge), 0);
  bool starts = true;
  try {
    std::thread([] {}).join();
  } catch (const std::system_error&) {
    starts = false;
  }
  // More ranks than the pool has workers: the first rank past the idle
  // workers needs a new thread.
  constexpr int kRanks = 64;
  JobReport report;
  if (!starts) {
    report = run_spmd(
        kRanks, [](const Comm& world, const ExecEnv&) { barrier(world); },
        fast_options());
  }
  ASSERT_EQ(pthread_setattr_default_np(&saved), 0);
  pthread_attr_destroy(&huge);
  pthread_attr_destroy(&saved);
  if (starts) GTEST_SKIP() << "a huge default stack did not stop a thread";

  // The ranks before the root cause ran on idle workers and unwound; the
  // ranks after it never ran.  Run alone, the test has two idle workers.
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  const RankFailure& cause = report.failures.front();
  EXPECT_EQ(cause.operation, "launch");
  EXPECT_GE(cause.world_rank, 2);
  EXPECT_LT(cause.world_rank, kRanks);
  EXPECT_EQ(report.failures.size(),
            static_cast<std::size_t>(cause.world_rank) + 1);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->world_rank, cause.world_rank);

  // The failed start left no worker behind: the pool grows as before.
  const std::vector<std::thread::id> ids = rank_threads(4);
  EXPECT_NE(ids[2], ids[3]);
}

TEST(RankPool, ConcurrentJobsFromTwoThreadsComplete) {
  const auto jobs = [](int nprocs, bool& ok) {
    ok = true;
    for (int round = 0; round < 20; ++round) {
      const JobReport report = run_spmd(
          nprocs,
          [nprocs](const Comm& world, const ExecEnv&) {
            EXPECT_EQ(allreduce_value(world, 1, op::Sum{}), nprocs);
            barrier(world);
          },
          fast_options());
      ok = ok && report.ok;
    }
  };
  bool a_ok = false;
  bool b_ok = false;
  std::thread a(jobs, 3, std::ref(a_ok));
  std::thread b(jobs, 4, std::ref(b_ok));
  a.join();
  b.join();
  EXPECT_TRUE(a_ok);
  EXPECT_TRUE(b_ok);
}
