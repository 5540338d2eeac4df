// fault.hpp — deterministic fault injection for minimpi jobs.
//
// A FaultPlan is a list of rules describing *where* a job should fail:
// kill a world rank at a named kill-point (the Nth time that rank reaches
// it), drop/delay a matching envelope, or truncate a payload in flight.
// The plan travels through JobOptions; when non-empty the Job owns a
// FaultInjector that every hooked code path consults.
//
// Determinism: rules pinned to a specific world rank fire at a fixed
// position in that rank's own (deterministic) operation sequence, so the
// same plan produces the same failing rank and operation on every run —
// the property the tests/faults suite asserts.  Rules with a wildcard
// victim fire on whichever rank reaches the hit count first and are only
// deterministic when a single rank can match.  FaultPlan::chaos_kill
// derives a pinned (rank, kill-point) pair from a seed for reproducible
// randomized robustness sweeps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/mailbox.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/types.hpp"
#include "src/util/rng.hpp"

namespace minimpi {

/// Places a kill rule can trigger.  `step` is an application-defined
/// checkpoint reached via Comm::fault_checkpoint(step); `entry`/`finish`
/// bracket the rank's entry-point function in the launcher.
enum class KillPoint {
  before_send,
  after_send,
  before_recv,
  after_recv,
  before_barrier,
  after_barrier,
  before_split,
  after_split,
  step,
  entry,
  finish,
};

[[nodiscard]] constexpr const char* kill_point_name(KillPoint p) noexcept {
  switch (p) {
    case KillPoint::before_send: return "before_send";
    case KillPoint::after_send: return "after_send";
    case KillPoint::before_recv: return "before_recv";
    case KillPoint::after_recv: return "after_recv";
    case KillPoint::before_barrier: return "before_barrier";
    case KillPoint::after_barrier: return "after_barrier";
    case KillPoint::before_split: return "before_split";
    case KillPoint::after_split: return "after_split";
    case KillPoint::step: return "step";
    case KillPoint::entry: return "entry";
    case KillPoint::finish: return "finish";
  }
  return "unknown";
}

/// Thrown by a fired kill rule; the launcher turns it into a structured
/// (rank, component, operation) abort.
class FaultInjectedError : public Error {
 public:
  FaultInjectedError(KillPoint point, rank_t world_rank)
      : Error(Errc::fault_injected,
              std::string("injected kill at ") + kill_point_name(point) +
                  " on world rank " + std::to_string(world_rank)),
        point_(point),
        world_rank_(world_rank) {}

  [[nodiscard]] KillPoint point() const noexcept { return point_; }
  [[nodiscard]] rank_t world_rank() const noexcept { return world_rank_; }

 private:
  KillPoint point_;
  rank_t world_rank_;
};

/// Wildcard context for envelope matching (real contexts start at 0 and
/// grow densely; the all-ones value is unreachable in practice).
inline constexpr context_t any_context = ~context_t{0};

/// Pattern selecting envelopes for drop/delay/truncate rules.  Every field
/// defaults to its wildcard.
struct EnvelopeMatch {
  context_t context = any_context;
  rank_t src = any_source;   ///< sender's world rank
  rank_t dest = any_source;  ///< receiver's world rank
  tag_t tag = any_tag;

  [[nodiscard]] bool matches(const Envelope& e,
                             rank_t dest_rank) const noexcept {
    return (context == any_context || context == e.context) &&
           (src == any_source || src == e.src) &&
           (dest == any_source || dest == dest_rank) &&
           (tag == any_tag || tag == e.tag);
  }
};

/// One injected fault.
struct FaultRule {
  enum class Action { kill, drop, delay, truncate };
  Action action = Action::kill;

  // Kill rules.
  KillPoint point = KillPoint::before_send;
  rank_t victim = any_source;  ///< world rank, or any_source for any rank
  std::uint64_t step = 0;      ///< for KillPoint::step: the checkpoint index

  // Envelope rules.
  EnvelopeMatch match;
  std::chrono::milliseconds delay{0};
  /// Upper bound of a uniformly-drawn random addition to `delay`, taken
  /// from the injector's job-seeded stream (0 = no jitter).  The same job
  /// seed reproduces the same jitter sequence.
  std::chrono::milliseconds delay_jitter{0};
  std::size_t truncate_to = 0;

  /// Fire on the Nth matching visit (1-based); each rule fires once.
  std::uint64_t hit = 1;
};

/// A record of one fired rule, for post-mortem assertions.
struct FaultEvent {
  std::size_t rule_index = 0;
  rank_t world_rank = -1;  ///< victim (kill) or destination (envelope rules)
  std::string description;
};

class FaultPlan {
 public:
  /// Kill `victim` the `hit`th time it reaches `point`.
  FaultPlan& kill_at(KillPoint point, rank_t victim, std::uint64_t hit = 1);

  /// Kill `victim` when it reaches application checkpoint `step`
  /// (Comm::fault_checkpoint).
  FaultPlan& kill_at_step(rank_t victim, std::uint64_t step);

  /// Silently discard the `hit`th envelope matching `match`.
  FaultPlan& drop(EnvelopeMatch match, std::uint64_t hit = 1);

  /// Delay delivery of the `hit`th matching envelope by `by`, plus a
  /// uniformly random addition in [0, jitter] drawn from the job-seeded
  /// stream when `jitter` is nonzero.
  FaultPlan& delay(EnvelopeMatch match, std::chrono::milliseconds by,
                   std::uint64_t hit = 1,
                   std::chrono::milliseconds jitter = {});

  /// Truncate the payload of the `hit`th matching envelope to `bytes`.
  FaultPlan& truncate(EnvelopeMatch match, std::size_t bytes,
                      std::uint64_t hit = 1);

  /// Seed-deterministic single-kill plan: picks one world rank and one
  /// communication kill-point from `seed`.  Same seed, same victim and
  /// operation — the reproducible "random process death" of the fault
  /// suite.
  [[nodiscard]] static FaultPlan chaos_kill(std::uint64_t seed, int world_size);

  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }
  [[nodiscard]] const std::vector<FaultRule>& rules() const noexcept {
    return rules_;
  }

 private:
  std::vector<FaultRule> rules_;
};

/// Runtime state of a plan within one Job.  Thread safe: rank threads call
/// on_point/admit concurrently.  The mailbox reaches it through the
/// interposer seam (hooks.hpp).
class FaultInjector final : public Interposer {
 public:
  /// `seed` feeds the injector's private random stream (delay jitter);
  /// the Job passes its resolved job seed so a replayed seed reproduces
  /// the exact same jitter values.  `observer` is the job's observer seam
  /// (null = none): every fired rule is reported there as fault_fired on
  /// the victim/sender rank — a trace instant and a metrics fault count.
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0,
                         Observer* observer = nullptr);

  /// Virtual-time mode: delay rules fire (and are recorded in events())
  /// but never actually sleep.  The verify scheduler enables this — under
  /// systematic exploration, timing is decided by the explorer, not by
  /// wall-clock sleeps, and real sleeps would only slow every schedule
  /// down without changing which matchings are reachable.
  void set_virtual_time(bool on) noexcept {
    virtual_time_.store(on, std::memory_order_release);
  }

  /// Kill-point hook.  Throws FaultInjectedError when a kill rule fires.
  /// `step` is only meaningful for KillPoint::step.
  void on_point(KillPoint point, rank_t world_rank, std::uint64_t step = 0);

  /// Envelope rules, run by Mailbox::deliver in the *sender's* thread
  /// before the destination mailbox is locked: returns false when a drop
  /// rule fired.  May sleep (delay rules) and may shrink the `env.payload`
  /// view (truncate rules; the sender's bytes are never written, and only
  /// the shortened view is copied).
  bool admit(Envelope& env, rank_t dest_world) override;

  /// Everything that fired so far.
  [[nodiscard]] std::vector<FaultEvent> events() const;

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_;
  Observer* observer_;                 ///< job's observer seam (null = none)
  mph::util::Rng rng_;                 ///< jitter stream (guarded by mutex_)
  mph::atomic<bool> virtual_time_{false};
  std::vector<std::uint64_t> visits_;  ///< per-rule matching-visit counts
  std::vector<bool> fired_;            ///< per-rule one-shot latch
  std::vector<FaultEvent> events_;
};

}  // namespace minimpi
