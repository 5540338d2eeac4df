// hooks.hpp — the two instrumentation seams of minimpi and the job clock.
//
// Every opt-in layer reaches the mailbox through one of two seams, so a
// Mailbox holds two hook pointers and every event site is one branch:
//
//   * Observer   — watches traffic: tracer, metrics registry, the mpicheck
//                  checker, and the scheduler's epoch/clock tracking.
//   * Interposer — changes traffic: the fault injector and the scheduler's
//                  vector-clock stamps and wildcard decisions.
//
// A seam is null with no layer on, the layer itself with one, and a fan-out
// over all of them, in a fixed order, with several (DESIGN.md §9).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "src/minimpi/types.hpp"

namespace minimpi {

class Job;
struct Envelope;
struct TypeSig;

/// The one clock of a job: nanoseconds since its epoch (steady clock).  The
/// Job shares it with tracer, registry and mailboxes, so all their times
/// are on one axis; a standalone MetricsRegistry gets its own.
class JobClock {
 public:
  JobClock() noexcept : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Vector-clock stamp a verifying scheduler attaches to an envelope at send
/// time (component i = sends rank i had issued when this send happened).
/// Null whenever verification is off — an Envelope then costs one unused
/// shared_ptr, nothing more.
using ClockStamp = std::shared_ptr<const std::vector<std::uint64_t>>;

/// One blocked mailbox wait, from its first failed match check to its end.
struct BlockedWait {
  rank_t waits_on = any_source;  ///< awaited world rank (or any_source)
  const char* op = "";           ///< mailbox operation ("recv", "wait", ...)
  /// The enclosing collective's label when one is active ("barrier", ...),
  /// `op` otherwise — what the trace's blocked span is named.
  const char* label = "";
  context_t context = kWorldContext;
  tag_t tag = any_tag;
  std::uint64_t t0_ns = 0;  ///< job-clock time the wait blocked
};

/// Observer seam: notifications, all no-ops by default.  Thread safe.
/// Unless noted, an event runs under the owner's mailbox mutex (on the
/// owner's thread, or the sender's for deliveries); an observer may take
/// its own locks there but never a mailbox mutex.  DESIGN.md §9 lists
/// every event with its lock context.
class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer() = default;

  /// Sender's thread, no lock, before any interposer; may stamp env.flow.
  virtual void envelope_sent(Envelope& /*env*/, rank_t /*dest*/) {}
  /// An envelope the interposer let through reached its final place in
  /// `owner`'s mailbox: a completed receive or the queue.
  virtual void envelope_delivered(rank_t /*owner*/, const Envelope& /*env*/) {}
  /// A receive matched `env`: `capacity` is its buffer size (the payload
  /// size when it takes ownership), `posted` tells a posted receive from a
  /// blocking one.  Returns the error the receive fails with, or null.
  /// Runs on the sender's thread when the receive was already waiting —
  /// a blocking one too — and then precedes envelope_delivered, which
  /// follows the copy into the receive's buffer.
  virtual std::exception_ptr envelope_matched(rank_t /*owner*/,
                                              const Envelope& /*env*/,
                                              const TypeSig& /*expected*/,
                                              std::size_t /*capacity*/,
                                              bool /*posted*/) {
    return nullptr;
  }
  /// The owner's unmatched backlog changed.
  virtual void queue_depth_changed(rank_t /*owner*/, std::size_t /*depth*/) {}
  /// A nonblocking receive was posted.
  virtual void recv_posted(rank_t /*owner*/, rank_t /*source*/,
                           context_t /*ctx*/, tag_t /*tag*/,
                           std::size_t /*capacity*/) {}
  /// A blocking receive ("recv") or request wait ("wait") that started at
  /// `t0_ns` completed at `t1_ns` (job clock); status.source is global.
  virtual void recv_completed(rank_t /*owner*/, const char* /*op*/,
                              const Status& /*status*/, context_t /*ctx*/,
                              std::uint64_t /*flow*/, std::uint64_t /*t0_ns*/,
                              std::uint64_t /*t1_ns*/) {}
  /// A posted receive's request was waited, tested complete or cancelled.
  virtual void request_consumed(rank_t /*owner*/) {}
  /// A wait's predicate failed: the owner is waiting, and has examined
  /// every delivery so far.  Called at the wait's first failed check, which
  /// stamps `wait.t0_ns`, and again, with the same `wait`, before each park
  /// on the condition variable; not per yield round.  Between the two the
  /// owner may still be running (yielding) while registered.
  virtual void wait_blocked(rank_t /*owner*/, const BlockedWait& /*wait*/) {}
  /// The blocked wait ended at `t1_ns` (matched, aborted or timed out).
  virtual void wait_unblocked(rank_t /*owner*/, const BlockedWait& /*wait*/,
                              std::uint64_t /*t1_ns*/) {}
  /// A blocked wait timed out; an observer may throw a more precise error.
  virtual void wait_timed_out(rank_t /*owner*/) {}
  /// A nonblocking check (iprobe, test) found nothing / what it polled for.
  virtual void poll_missed(rank_t /*owner*/, rank_t /*source*/,
                           const char* /*op*/, context_t /*ctx*/,
                           tag_t /*tag*/) {}
  virtual void poll_hit(rank_t /*owner*/) {}
  /// Any thread, no mailbox lock: a fault rule fired on `rank` ("drop",
  /// "delay", "truncate" or a kill-point); `detail` is bytes or ms.
  virtual void fault_fired(rank_t /*rank*/, const char* /*name*/,
                           rank_t /*peer*/, context_t /*ctx*/, tag_t /*tag*/,
                           std::uint64_t /*detail*/) {}
};

/// Interposer seam: layers that may change what the mailbox does.
class Interposer {
 public:
  Interposer() = default;
  Interposer(const Interposer&) = delete;
  Interposer& operator=(const Interposer&) = delete;
  virtual ~Interposer() = default;

  /// True for a layer that serializes match decisions (the verify
  /// scheduler).  Mailboxes consult this once at construction.
  [[nodiscard]] virtual bool verifying() const noexcept { return false; }
  /// Sender's thread, no lock, after the observers saw the send: returns
  /// false to drop; may sleep, shrink the payload view, or stamp env.vc.
  virtual bool admit(Envelope& /*env*/, rank_t /*dest*/) { return true; }
  /// Verifying only, no lock: hold `owner`'s ANY_SOURCE receive/probe
  /// until the engine picks the sender it must match; returns that rank.
  virtual rank_t resolve_wildcard(rank_t /*owner*/, context_t /*ctx*/,
                                  tag_t /*tag*/, const char* /*op*/) {
    return any_source;
  }
  /// Verifying only, under the owner's mutex: pick the sender a wildcard
  /// iprobe matches among `candidates` (ascending world ranks).
  virtual rank_t resolve_immediate(rank_t /*owner*/, context_t /*ctx*/,
                                   tag_t /*tag*/,
                                   const std::vector<rank_t>& candidates) {
    return candidates.front();
  }
};

/// Pass-through scheduler: an Observer and an Interposer with no-op events,
/// plus the lifecycle calls of the job and the launcher.  The verify
/// scheduler (src/minimpi/verify/) overrides the events to track delivery
/// epochs and vector clocks and to serialize wildcard match choices: a rank
/// reaching a wildcard receive is *held* in resolve_wildcard() until every
/// other rank is provably unable to produce further candidates, at which
/// point the exploration engine picks the matched sender.  See DESIGN.md
/// §10.
class Scheduler : public Observer, public Interposer {
 public:
  /// Attach the owning job.  Called once by the Job constructor after the
  /// mailboxes exist.
  virtual void bind(Job* /*job*/) {}

  /// Park any helper threads.  Idempotent; called by the launcher after
  /// every rank joined and again by ~Job.
  virtual void stop() {}

  virtual void rank_started(rank_t /*world_rank*/) {}
  /// Also called when a rank unwinds with an exception: a finished rank can
  /// never produce another send, which is what quiescence detection needs.
  virtual void rank_finished(rank_t /*world_rank*/) {}
};

/// The observer seam over `layers` (null entries skipped): null when none
/// is on, the layer itself when one is, otherwise a fan-out — kept alive in
/// `fan_out` — that calls every layer in order; envelope_matched returns
/// the first error any layer reported.
[[nodiscard]] Observer* wire_observers(std::vector<Observer*> layers,
                                       std::unique_ptr<Observer>& fan_out);

/// The interposer seam, wired the same way: admit() stops at the first
/// layer that drops, and decisions go to the verifying layer.
[[nodiscard]] Interposer* wire_interposers(
    std::vector<Interposer*> layers, std::unique_ptr<Interposer>& fan_out);

}  // namespace minimpi
