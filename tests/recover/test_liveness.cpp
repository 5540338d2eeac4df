// Liveness probing under member death: ping retry/backoff budgets,
// await_alive's PeerTimeoutError (naming the peer, the attempts made and
// the elapsed wait), and the directory's death cache marking dead members
// without ever poisoning live ones.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/fault.hpp"
#include "src/mph/errors.hpp"
#include "tests/mph/mph_test_util.hpp"

namespace {

using minimpi::Comm;
using mph::Mph;
using mph::PeerTimeoutError;
using mph::testing::TestExec;

const std::string kRegistry = R"(BEGIN
Multi_Instance_Begin
Ocean1 0 1
Ocean2 2 3
Ocean3 4 5
Multi_Instance_End
statistics
END
)";

constexpr std::uint64_t kKillStep = 2;
constexpr minimpi::rank_t kVictimRank = 4;  ///< Ocean3's first world rank

struct Observed {
  std::mutex mutex;
  bool saw_failure = false;
  bool ping_dead = true;
  bool ping_alive = false;
  std::vector<std::string> failed_after_ping;
  bool caught_timeout = false;
  std::string err_component;
  int err_attempts = -1;
  std::chrono::milliseconds err_elapsed{-1};
  std::string err_message;
  bool require_dead_threw = false;
  bool require_alive_threw = true;
};

/// MIME job with isolation: Ocean3's first rank dies at `kKillStep`, no
/// supervisor — the death is permanent.  The statistics rank exercises the
/// liveness API with the given retry policy and records what it saw.
minimpi::JobReport run_liveness_job(int attempts,
                                    std::chrono::milliseconds backoff,
                                    Observed& observed) {
  mph::HandshakeOptions handshake;
  handshake.isolate_instances = true;
  handshake.liveness.attempts = attempts;
  handshake.liveness.backoff = backoff;
  handshake.liveness.backoff_factor = 1.0;

  minimpi::JobOptions job = mph::testing::test_job_options();
  job.faults.kill_at_step(kVictimRank, kKillStep);

  auto member = [](Mph& h, const Comm&) {
    for (std::uint64_t step = 0; step < 6; ++step) {
      h.comp_comm().fault_checkpoint(step);
    }
  };
  auto stats = [&](Mph& h, const Comm&) {
    // Wait for the kill to land; failure_of is an immediate, cache-neutral
    // observation.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool saw = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (h.failure_of("Ocean3").has_value()) {
        saw = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const bool ping_dead = h.ping("Ocean3");
    std::vector<std::string> failed = h.failed_components();

    bool caught = false;
    std::string err_component;
    int err_attempts = -1;
    std::chrono::milliseconds err_elapsed{-1};
    std::string err_message;
    try {
      h.await_alive("Ocean3");
    } catch (const PeerTimeoutError& ex) {
      caught = true;
      err_component = ex.component();
      err_attempts = ex.attempts();
      err_elapsed = ex.elapsed();
      err_message = ex.what();
    }

    bool require_dead_threw = false;
    try {
      h.require_alive("Ocean3");
    } catch (const mph::ComponentFailedError&) {
      require_dead_threw = true;
    }
    bool require_alive_threw = false;
    try {
      h.require_alive("Ocean1");
    } catch (const mph::ComponentFailedError&) {
      require_alive_threw = true;
    }

    const bool ping_alive = h.ping("Ocean1");

    const std::lock_guard<std::mutex> lock(observed.mutex);
    observed.saw_failure = saw;
    observed.ping_dead = ping_dead;
    observed.ping_alive = ping_alive;
    observed.failed_after_ping = std::move(failed);
    observed.caught_timeout = caught;
    observed.err_component = std::move(err_component);
    observed.err_attempts = err_attempts;
    observed.err_elapsed = err_elapsed;
    observed.err_message = std::move(err_message);
    observed.require_dead_threw = require_dead_threw;
    observed.require_alive_threw = require_alive_threw;
  };

  return mph::testing::run_mph_job(
      kRegistry,
      {TestExec{{}, "Ocean", 6, member},
       TestExec{{"statistics"}, "", 1, stats}},
      handshake, std::move(job));
}

TEST(Liveness, SingleShotPolicyReportsDeadImmediately) {
  Observed observed;
  const minimpi::JobReport report =
      run_liveness_job(/*attempts=*/1, std::chrono::milliseconds(50), observed);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(observed.saw_failure);

  EXPECT_FALSE(observed.ping_dead);
  ASSERT_TRUE(observed.caught_timeout);
  EXPECT_EQ(observed.err_component, "Ocean3");
  EXPECT_EQ(observed.err_attempts, 1);
  EXPECT_GE(observed.err_elapsed.count(), 0);
  EXPECT_NE(observed.err_message.find("Ocean3"), std::string::npos)
      << observed.err_message;
  EXPECT_NE(observed.err_message.find("1 ping attempt"), std::string::npos)
      << observed.err_message;
}

TEST(Liveness, RetryBudgetBacksOffThenNamesPeerAttemptsAndElapsed) {
  Observed observed;
  const minimpi::JobReport report =
      run_liveness_job(/*attempts=*/3, std::chrono::milliseconds(20), observed);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(observed.saw_failure);

  // The member is permanently dead: the whole retry budget is spent.
  ASSERT_TRUE(observed.caught_timeout);
  EXPECT_EQ(observed.err_component, "Ocean3");
  EXPECT_EQ(observed.err_attempts, 3);
  // Two inter-probe backoffs of 20 ms each (factor 1.0): the elapsed wait
  // reflects real waiting, with slack for coarse clocks.
  EXPECT_GE(observed.err_elapsed.count(), 30);
  EXPECT_NE(observed.err_message.find("Ocean3"), std::string::npos);
  EXPECT_NE(observed.err_message.find("3 ping attempts"), std::string::npos)
      << observed.err_message;
  EXPECT_NE(observed.err_message.find("ms"), std::string::npos);
}

TEST(Liveness, DeathCacheMarksDeadMembersAndSparesLiveOnes) {
  Observed observed;
  const minimpi::JobReport report =
      run_liveness_job(/*attempts=*/1, std::chrono::milliseconds(10), observed);
  ASSERT_TRUE(report.ok) << report.abort_reason;
  ASSERT_TRUE(observed.saw_failure);

  // After the failed ping the directory cache holds exactly the dead
  // member; live members keep answering and never enter the cache.
  EXPECT_EQ(observed.failed_after_ping, std::vector<std::string>{"Ocean3"});
  EXPECT_TRUE(observed.ping_alive);
  EXPECT_TRUE(observed.require_dead_threw);
  EXPECT_FALSE(observed.require_alive_threw);
}

}  // namespace
