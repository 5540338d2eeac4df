// verify_scheduler.hpp — the serializing scheduler behind mph_verify.
//
// Under this scheduler every wildcard (ANY_SOURCE) receive or probe is a
// *fence*: the owning rank is held until every other rank is provably
// unable to produce further candidate messages, the complete candidate set
// is read from the owner's mailbox, and the exploration engine picks the
// matched sender explicitly.  Because exact-source receives are already
// deterministic in minimpi (each sender is a single thread delivering in
// program order, and matching within one sender is FIFO), wildcard choices
// are the only source of schedule nondeterminism — so driving them from a
// decision sequence makes whole runs replayable, and enumerating them
// explores the entire matching space.  See DESIGN.md §10 for the
// quiescence and completeness arguments.
//
// Thread model:
//   * rank threads call the Scheduler hooks (their own state transitions,
//     vector clocks, fences);
//   * one monitor thread detects quiescence, reads candidate sets, asks the
//     engine for decisions, and releases held ranks;
//   * only a rank's OWN thread ever changes its run-state — foreign-thread
//     hooks (envelope_matched, envelope_delivered) touch only epochs,
//     clocks, and the validation version counter.  This is what keeps a
//     held rank from being unmarked behind its back and hanging forever.
//
// Lock order: mailbox mutex -> scheduler mutex is allowed; the scheduler
// never takes a mailbox mutex while holding its own (the monitor snapshots
// under its mutex, unlocks, queries mailboxes, relocks, and validates via
// the version counter).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/minimpi/hooks.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {
class Job;
}  // namespace minimpi

namespace minimpi::verify {

/// A choice the engine must make: which of `candidates` (ascending world
/// ranks, all matchable *now*) does `owner`'s wildcard operation match?
struct DecisionPoint {
  rank_t owner = -1;
  context_t context = kWorldContext;
  tag_t tag = any_tag;
  std::string op = "recv";
  std::vector<rank_t> candidates;
  /// Nonblocking wildcard iprobe with several queued candidates: decided
  /// immediately (no fence), recorded but not exhaustively explored.
  bool immediate = false;
};

/// A wildcard receive observed with more than one concurrently-matchable
/// sender — the race the detector reports.  `concurrent` is true when at
/// least two candidate sends are causally unordered (vector clocks); a
/// causally-ordered candidate set is still a matching race in MPI (non-
/// overtaking does not order cross-sender messages) but is flagged apart.
struct RaceRecord {
  rank_t owner = -1;
  context_t context = kWorldContext;
  tag_t tag = any_tag;
  std::string op = "recv";
  std::vector<rank_t> candidates;
  bool concurrent = true;

  [[nodiscard]] std::string to_string(
      const std::function<std::string(rank_t)>& label = {}) const;
};

class VerifyScheduler final : public Scheduler {
 public:
  /// `decide` is the engine's callback: called once per decision point
  /// (from the monitor thread for fenced decisions, from the owning rank's
  /// thread for immediate ones) and must return one of point.candidates —
  /// the exploration tree only ever picks an index below their count.
  using DecideFn = std::function<rank_t(const DecisionPoint&)>;

  explicit VerifyScheduler(DecideFn decide);
  ~VerifyScheduler() override;

  // Scheduler interface ------------------------------------------------------
  [[nodiscard]] bool verifying() const noexcept override { return true; }
  void bind(Job* job) override;
  void stop() override;
  void rank_started(rank_t world_rank) override;
  void rank_finished(rank_t world_rank) override;
  /// Stamps the envelope with the sender's vector clock.
  bool admit(Envelope& env, rank_t dest) override;
  void envelope_delivered(rank_t owner, const Envelope& env) override;
  /// Joins the envelope's send clock into the receiver's.
  std::exception_ptr envelope_matched(rank_t owner, const Envelope& env,
                                      const TypeSig& expected,
                                      std::size_t capacity,
                                      bool posted) override;
  void wait_blocked(rank_t owner, const BlockedWait& wait) override;
  void wait_unblocked(rank_t owner, const BlockedWait& wait,
                      std::uint64_t t1_ns) override;
  void poll_missed(rank_t owner, rank_t source, const char* op, context_t ctx,
                   tag_t tag) override;
  rank_t resolve_wildcard(rank_t owner, context_t ctx, tag_t tag,
                          const char* op) override;
  rank_t resolve_immediate(rank_t owner, context_t ctx, tag_t tag,
                           const std::vector<rank_t>& candidates) override;

  /// Every wildcard decision point that had >= 2 candidates, in decision
  /// order.  Read after the job finished (stop() joined the monitor).
  [[nodiscard]] std::vector<RaceRecord> races() const;

 private:
  enum class RunState : std::uint8_t {
    not_started,  ///< thread not yet launched — may do anything
    running,      ///< between hooks — may send at any moment
    blocked,      ///< hard-blocked in a mailbox wait
    held,         ///< parked at a wildcard fence, waiting for a decision
    polling,      ///< took a nonblocking miss — may be spinning
    finished      ///< entry point returned/threw — can never send again
  };

  struct RankState {
    RunState state = RunState::not_started;
    std::uint64_t epoch = 0;       ///< deliveries made to this rank
    std::uint64_t seen_epoch = 0;  ///< epoch examined through (blocked/poll)
    std::uint64_t spins = 0;       ///< consecutive nonblocking misses
    // Held-fence slot; ctx/tag/op double as the blocked wait's pattern for
    // the stuck-state report.
    context_t ctx = kWorldContext;
    tag_t tag = any_tag;
    const char* op = "recv";
    rank_t waits_on = any_source;  ///< blocked wait's awaited rank
    bool has_chosen = false;
    rank_t chosen = any_source;
  };

  /// True when `st` provably cannot initiate a new delivery before the
  /// engine acts.  Requires mutex_.
  [[nodiscard]] static bool quiescent(const RankState& st) noexcept;

  void monitor_loop();

  /// One monitor pass: if a held rank exists and the system is quiescent,
  /// read candidates, decide, release.  Requires nothing; takes mutex_.
  void try_decide();

  /// Format the stuck-state report.  Requires mutex_.
  [[nodiscard]] std::string describe_stuck_locked() const;

  DecideFn decide_;
  Job* job_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< wakes held rank threads
  std::vector<RankState> ranks_;      ///< slot per world rank
  std::vector<std::vector<std::uint64_t>> clocks_;  ///< vector clocks
  std::uint64_t version_ = 0;  ///< bumped on every state/epoch change
  bool stopping_ = false;
  bool stuck_reported_ = false;
  std::vector<RaceRecord> races_;

  std::thread monitor_;
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
};

}  // namespace minimpi::verify
