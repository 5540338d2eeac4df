// Engine-semantics tests for mph_racer: outcome enumeration over the
// modeled memory-model fragment, CAS semantics, sleep-set/preemption
// accounting, budgets, replay determinism, and divergence detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "src/minimpi/racer/engine.hpp"

using namespace minimpi::racer;

namespace {

RacerOptions small_bounds() {
  RacerOptions o;
  o.max_executions = 100000;
  return o;
}

}  // namespace

TEST(RacerEngine, StoreBufferingRelaxedReachesAllFourOutcomes) {
  Engine e;
  std::set<std::pair<int, int>> outcomes;
  const RacerReport rep = e.explore(
      "sb_relaxed",
      [&] {
        mph::atomic<int> x{0};
        mph::atomic<int> y{0};
        int r1 = -1;
        int r2 = -1;
        run_threads({[&] {
                       x.store(1, std::memory_order_relaxed);
                       r1 = y.load(std::memory_order_relaxed);
                     },
                     [&] {
                       y.store(1, std::memory_order_relaxed);
                       r2 = x.load(std::memory_order_relaxed);
                     }});
        outcomes.insert({r1, r2});
      },
      small_bounds());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(outcomes.size(), 4u);
  EXPECT_GE(rep.executions, 4u);
  EXPECT_GE(rep.frontier_lower_bound, rep.executions);
}

TEST(RacerEngine, StoreBufferingSeqCstExcludesBothZero) {
  Engine e;
  std::set<std::pair<int, int>> outcomes;
  const RacerReport rep = e.explore(
      "sb_sc",
      [&] {
        mph::atomic<int> x{0};
        mph::atomic<int> y{0};
        int r1 = -1;
        int r2 = -1;
        run_threads({[&] {
                       x.store(1);
                       r1 = y.load();
                     },
                     [&] {
                       y.store(1);
                       r2 = x.load();
                     }});
        outcomes.insert({r1, r2});
      },
      small_bounds());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(outcomes.count({0, 0}), 0u);
  EXPECT_EQ(outcomes.size(), 3u);
}

TEST(RacerEngine, CasExactlyOneWinner) {
  Engine e;
  const RacerReport rep = e.explore(
      "cas_one_winner",
      [&] {
        mph::atomic<int> x{0};
        int wins = 0;
        auto claim = [&x, &wins] {
          int expected = 0;
          if (x.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
            ++wins;  // tid-serialized: only the winner's thread writes
          } else {
            RACER_CHECK(expected == 1, "cas failure must load the winner");
          }
        };
        run_threads({claim, claim});
        RACER_CHECK(wins == 1, "exactly one CAS may win");
        RACER_CHECK(x.load(std::memory_order_relaxed) == 1, "value is claimed");
      },
      small_bounds());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(RacerEngine, FetchAddNeverLosesUpdates) {
  Engine e;
  const RacerReport rep = e.explore(
      "rmw_exact",
      [&] {
        mph::atomic<std::uint8_t> c{250};
        run_threads({[&] { c.fetch_add(3, std::memory_order_relaxed); },
                     [&] { c.fetch_add(3, std::memory_order_relaxed); }});
        // 250 + 3 + 3 wraps the 8-bit counter: the model must wrap too.
        RACER_CHECK(c.load(std::memory_order_relaxed) == 0,
                    "narrow fetch_add must wrap at the type width");
      },
      small_bounds());
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(RacerEngine, RacyIncrementBugIsFound) {
  Engine e;
  const RacerReport rep = e.explore(
      "racy_inc",
      [&] {
        mph::atomic<std::uint64_t> c{0};
        auto racy_inc = [&c] {
          const std::uint64_t v = c.load(std::memory_order_relaxed);
          c.store(v + 1, std::memory_order_relaxed);
        };
        run_threads({racy_inc, racy_inc});
        RACER_CHECK(c.load(std::memory_order_relaxed) == 2,
                    "racy increment lost an update");
      },
      small_bounds());
  EXPECT_TRUE(rep.failed) << rep.summary();
  EXPECT_FALSE(rep.failure_decisions.empty());
}

TEST(RacerEngine, ReplayReproducesTheExactFailure) {
  const auto body = [] {
    mph::atomic<int> data{0};
    mph::atomic<int> flag{0};
    run_threads({[&] {
                   data.store(1, std::memory_order_relaxed);
                   flag.store(1, std::memory_order_relaxed);
                 },
                 [&] {
                   if (flag.load(std::memory_order_acquire) == 1) {
                     RACER_CHECK(data.load(std::memory_order_relaxed) == 1,
                                 "mp: stale data");
                   }
                 }});
  };
  Engine e;
  const RacerReport found = e.explore("mp", body, small_bounds());
  ASSERT_TRUE(found.failed) << found.summary();

  Engine e2;
  const RacerReport replayed =
      e2.replay("mp", body, small_bounds(), found.failure_decisions);
  EXPECT_TRUE(replayed.failed) << replayed.summary();
  EXPECT_EQ(replayed.failure_reason, found.failure_reason);
  EXPECT_TRUE(replayed.divergence.empty()) << replayed.divergence;
  EXPECT_EQ(replayed.executions, 1u);
}

TEST(RacerEngine, ReplayAgainstTheWrongBodyDiverges) {
  Engine e;
  const RacerReport found = e.explore(
      "mp",
      [] {
        mph::atomic<int> data{0};
        mph::atomic<int> flag{0};
        run_threads({[&] {
                       data.store(1, std::memory_order_relaxed);
                       flag.store(1, std::memory_order_relaxed);
                     },
                     [&] {
                       if (flag.load(std::memory_order_acquire) == 1) {
                         RACER_CHECK(data.load(std::memory_order_relaxed) == 1,
                                     "mp: stale data");
                       }
                     }});
      },
      small_bounds());
  ASSERT_TRUE(found.failed);
  ASSERT_GE(found.failure_decisions.size(), 2u);

  // A structurally different body cannot follow that schedule.
  Engine e2;
  const RacerReport replayed = e2.replay(
      "other",
      [] {
        mph::atomic<int> x{0};
        run_threads({[&] { x.store(1, std::memory_order_relaxed); },
                     [&] { (void)x.load(std::memory_order_relaxed); },
                     [&] { (void)x.load(std::memory_order_relaxed); }});
      },
      small_bounds(), found.failure_decisions);
  EXPECT_FALSE(replayed.divergence.empty()) << replayed.summary();
}

TEST(RacerEngine, ExecutionBudgetIsReportedNotSilent) {
  Engine e;
  RacerOptions o;
  o.max_executions = 2;
  const RacerReport rep = e.explore(
      "sb_budget",
      [] {
        mph::atomic<int> x{0};
        mph::atomic<int> y{0};
        run_threads({[&] {
                       x.store(1, std::memory_order_relaxed);
                       (void)y.load(std::memory_order_relaxed);
                     },
                     [&] {
                       y.store(1, std::memory_order_relaxed);
                       (void)x.load(std::memory_order_relaxed);
                     }});
      },
      o);
  EXPECT_FALSE(rep.complete);
  EXPECT_TRUE(rep.exec_budget_exhausted);
  EXPECT_FALSE(rep.ok());
  // The frontier still reports unexplored work.
  EXPECT_GT(rep.frontier_lower_bound, rep.executions + rep.redundant);
}

TEST(RacerEngine, SpinLoopTripsTheStepLimit) {
  Engine e;
  RacerOptions o;
  o.max_steps = 64;
  EXPECT_THROW(
      (void)e.explore(
          "spin",
          [] {
            mph::atomic<int> flag{0};
            run_threads({[&] {
              while (flag.load(std::memory_order_acquire) == 0) {
              }
            }});
          },
          o),
      RacerError);
}

TEST(RacerEngine, PreemptionBoundPrunesAndReportsIt) {
  const auto body = [] {
    mph::atomic<int> x{0};
    auto bump = [&x] {
      x.fetch_add(1, std::memory_order_relaxed);
      x.fetch_add(1, std::memory_order_relaxed);
      x.fetch_add(1, std::memory_order_relaxed);
    };
    run_threads({bump, bump});
    RACER_CHECK(x.load(std::memory_order_relaxed) == 6, "lost increment");
  };
  Engine bounded;
  RacerOptions tight;
  tight.preemption_bound = 0;
  const RacerReport at0 = bounded.explore("bump", body, tight);
  EXPECT_TRUE(at0.complete) << at0.summary();
  EXPECT_FALSE(at0.failed);
  EXPECT_GT(at0.pruned_preemptions, 0u);

  Engine unbounded;
  RacerOptions loose;
  loose.preemption_bound = 100;
  const RacerReport full = unbounded.explore("bump", body, loose);
  EXPECT_TRUE(full.complete) << full.summary();
  EXPECT_EQ(full.pruned_preemptions, 0u);
  EXPECT_GT(full.executions, at0.executions);
}

TEST(RacerEngine, NamedLocationsAppearInTheFailureLog) {
  Engine e;
  const RacerReport rep = e.explore(
      "named",
      [] {
        mph::atomic<int> flag{0};
        name_location(&flag, "my_flag");
        run_threads({[&] { flag.store(1, std::memory_order_relaxed); }});
        RACER_CHECK(flag.load(std::memory_order_relaxed) == 2,
                    "always fails: log capture probe");
      },
      small_bounds());
  ASSERT_TRUE(rep.failed);
  bool saw_name = false;
  for (const StepEvent& ev : rep.failure_events) {
    if (ev.text.find("my_flag") != std::string::npos) saw_name = true;
  }
  EXPECT_TRUE(saw_name);
}

TEST(RacerEngine, TraceJsonRoundTripsTheSchedule) {
  Engine e;
  const RacerReport rep = e.explore(
      "fails",
      [] {
        mph::atomic<int> x{0};
        run_threads({[&] { x.store(1, std::memory_order_relaxed); },
                     [&] { x.store(2, std::memory_order_relaxed); }});
        RACER_CHECK(x.load(std::memory_order_relaxed) == 3, "never 3");
      },
      small_bounds());
  ASSERT_TRUE(rep.failed);
  const std::string json = write_racer_trace(rep);
  EXPECT_NE(json.find("\"kind\": \"mph_racer_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"litmus\": \"fails\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  // The strict reader gives back the litmus and every decision field.
  const RacerTrace back = read_racer_trace(json);
  EXPECT_EQ(back.litmus, "fails");
  ASSERT_EQ(back.decisions.size(), rep.failure_decisions.size());
  for (std::size_t i = 0; i < back.decisions.size(); ++i) {
    const Decision& a = back.decisions[i];
    const Decision& b = rep.failure_decisions[i];
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_EQ(a.chosen, b.chosen);
    EXPECT_EQ(a.options, b.options);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.note, b.note);
  }
}
