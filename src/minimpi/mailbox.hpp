// mailbox.hpp — per-rank message store with MPI matching semantics.
//
// Every rank of a job owns one Mailbox.  Senders call deliver() on the
// destination's mailbox; the owning rank blocks in recv()/probe() or posts
// asynchronous receives (post_recv) that a later deliver() completes in the
// sender's thread.  Matching follows MPI: a receive (source, tag) matches an
// envelope when context ids are equal and each of source/tag either equals
// the envelope's or is a wildcard; envelopes from the same (source, tag) are
// matched in arrival order (the MPI non-overtaking rule).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/minimpi/check.hpp"
#include "src/minimpi/error.hpp"
#include "src/minimpi/hooks.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

/// A message in flight: routing key plus payload bytes.
/// `src` is always the *global* (world) rank of the sender; communicators
/// translate to local ranks at the API boundary.
///
/// The payload is a view.  At a send site it borrows the sender's bytes,
/// valid until deliver() returns: a receive that is already waiting gets
/// them copied straight into its buffer, and only an envelope that has to
/// queue copies them into its own `storage` (DESIGN.md §9, "One copy").
/// Move-only, so a queued payload is never copied again.
struct Envelope {
  Envelope() = default;
  Envelope(Envelope&&) noexcept = default;
  Envelope& operator=(Envelope&&) noexcept = default;
  Envelope(const Envelope&) = delete;
  Envelope& operator=(const Envelope&) = delete;

  context_t context = kWorldContext;
  rank_t src = any_source;
  tag_t tag = any_tag;
  std::span<const std::byte> payload;
  /// Owned bytes: filled by own(), after which `payload` views them.
  std::vector<std::byte> storage;
  /// Element-type signature of a typed send (empty for raw/control traffic);
  /// verified against the receive side when type checking is on.
  TypeSig sig{};
  /// Sender's vector clock at send time (null unless a verifying scheduler
  /// is active); drives the wildcard-race classification.
  ClockStamp vc;
  /// Trace flow id stamped at the send site (0 when tracing is off): the
  /// matching receive event records the same id, which is what lets
  /// mph_prof stitch cross-rank happens-before edges.
  std::uint64_t flow = 0;

  /// True when `payload` is exactly `storage` (or both are empty).
  [[nodiscard]] bool owned() const noexcept {
    return payload.size() == storage.size() &&
           (payload.empty() || payload.data() == storage.data());
  }
  /// Make the payload owned: copy borrowed bytes into `storage`, or trim
  /// `storage` to a view a truncate rule shrank.
  void own() {
    if (owned()) return;
    if (payload.data() == storage.data()) {
      storage.resize(payload.size());
    } else {
      storage.assign(payload.begin(), payload.end());
    }
    payload = storage;
  }
};

/// Completion state of a posted receive.  Shared between the poster (who
/// waits) and the delivering sender (who completes it).  A blocking recv
/// publishes one too, on its own stack.  All fields are protected by the
/// owning Mailbox's mutex.
struct RecvTicket {
  bool done = false;
  Status status;                    ///< valid once done (source is global)
  std::exception_ptr error;         ///< set instead of status on failure
  // Posted pattern, kept for timeout diagnostics.
  context_t context = kWorldContext;
  rank_t source = any_source;
  tag_t tag = any_tag;
  /// Leak audit: flips when the request is waited/tested-done/cancelled, so
  /// each request is counted consumed at most once.
  bool accounted = false;
  /// Flow id of the envelope that completed this receive (0 until matched
  /// or when tracing is off) — recorded on the wait span.
  std::uint64_t flow = 0;
  /// The request was destroyed unconsumed (Mailbox::detach): the buffer may
  /// be gone, so a match discards the payload.
  bool detached = false;
  /// A sender matched this receive and is copying into its buffer outside
  /// the mutex; `done` follows.  Whatever ends the buffer's lifetime waits
  /// for this to clear.
  bool copying = false;
};

/// Deadline for blocking operations; Mailbox treats time_point::max() as
/// "wait forever".
using Deadline = std::chrono::steady_clock::time_point;

/// What Mailbox::drain found (and discarded) at teardown.
struct MailboxDrain {
  std::size_t envelopes = 0;       ///< queued, never-received messages
  std::size_t posted_recvs = 0;    ///< posted receives that never matched
};

class Mailbox {
 public:
  /// `abort_flag` / `abort_reason` belong to the owning Job; every blocking
  /// wait observes them so a failed rank unblocks the whole job.
  /// `owner_rank` is the world rank this mailbox belongs to.  `observer` and
  /// `interposer` are the job's two instrumentation seams (hooks.hpp; null
  /// when no layer of that kind is on): every event site is one branch on
  /// one of them.  `clock` is the job clock the receive and blocked-wait
  /// intervals reported to the observer are measured on.
  Mailbox(const mph::atomic<bool>& abort_flag, const std::string& abort_reason,
          rank_t owner_rank = 0, Observer* observer = nullptr,
          Interposer* interposer = nullptr, JobClock clock = {})
      : abort_flag_(abort_flag),
        abort_reason_(abort_reason),
        owner_rank_(owner_rank),
        observer_(observer),
        interposer_(interposer),
        clock_(clock),
        verify_(interposer != nullptr && interposer->verifying()) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Attach a failure-domain abort flag/reason (ensemble member isolation):
  /// blocking waits then also unwind when just this rank's domain aborts.
  void set_domain(const mph::atomic<bool>* flag, const std::string* reason);

  /// Sender-side entry point: copy into a matching waiting receive, or
  /// queue an owned copy.  The observers see the send first, then the
  /// interposer may drop, delay or alter the envelope.  A borrowed payload
  /// is not read after deliver() returns.
  void deliver(Envelope&& env);

  /// Blocking receive into a caller-owned buffer.  Throws Errc::truncation
  /// if the matched payload exceeds `buffer.size()` (the envelope stays
  /// queued).  `expected` is the receive's element-type signature for the
  /// type checker (empty = raw).  While it waits, the buffer is published
  /// among the posted receives, so a sender copies straight into it.
  Status recv(context_t ctx, rank_t source, tag_t tag,
              std::span<std::byte> buffer, Deadline deadline,
              TypeSig expected = {});

  /// Blocking receive that takes ownership of the payload (used when the
  /// receiver does not know the size in advance).
  std::pair<Status, std::vector<std::byte>> recv_take(context_t ctx,
                                                      rank_t source, tag_t tag,
                                                      Deadline deadline,
                                                      TypeSig expected = {});

  /// Post an asynchronous receive.  The buffer must stay valid until the
  /// ticket completes.  May complete immediately if a message is queued.
  std::shared_ptr<RecvTicket> post_recv(context_t ctx, rank_t source,
                                        tag_t tag, std::span<std::byte> buffer,
                                        TypeSig expected = {});

  /// Block until `ticket` completes; rethrows any delivery error.
  Status wait(const std::shared_ptr<RecvTicket>& ticket, Deadline deadline);

  /// Nonblocking completion check; fills `out` when done.
  bool test(const std::shared_ptr<RecvTicket>& ticket, Status* out);

  /// Cancel a not-yet-matched posted receive (used on error unwind).
  void cancel(const std::shared_ptr<RecvTicket>& ticket);

  /// Detach the buffer of a posted receive whose request died unconsumed:
  /// the receive keeps its place in the matching order (non-overtaking),
  /// but its envelope is discarded, not copied.  Not counted consumed.
  /// Returns once no copy into the buffer is in flight.
  void detach(const std::shared_ptr<RecvTicket>& ticket);

  /// Blocking probe: wait for a matching message without consuming it.
  Status probe(context_t ctx, rank_t source, tag_t tag, Deadline deadline);

  /// Nonblocking probe.
  std::optional<Status> iprobe(context_t ctx, rank_t source, tag_t tag);

  /// Wake every waiter (called by Job::abort from any thread).
  void wake_all();

  /// Number of queued (unmatched) envelopes — for tests/diagnostics.
  [[nodiscard]] std::size_t queued() const;

  /// Largest queue_ size ever observed (backpressure high-water mark).
  [[nodiscard]] std::size_t queue_high_water() const;

  /// Wildcard (ANY_SOURCE) receive operations this rank issued.
  [[nodiscard]] std::uint64_t wildcard_recvs() const noexcept {
    return wildcard_recvs_.load(std::memory_order_relaxed);
  }

  /// Envelopes delivered to this mailbox per communicator context.
  [[nodiscard]] std::vector<std::pair<context_t, std::uint64_t>>
  delivered_by_context() const;

  /// Number of outstanding posted receives (a waiting blocking recv that
  /// published its buffer counts too).
  [[nodiscard]] std::size_t posted() const;

  /// Whether some thread holds the mutex now (a try-lock probe for tests;
  /// never call it from a thread that may hold the mutex itself).
  [[nodiscard]] bool busy() const;

  /// One matchable sender for a held wildcard receive: the first queued
  /// envelope from `src` matching the pattern (MPI non-overtaking makes it
  /// the only one that receive could match from that sender).
  struct WildcardCandidate {
    rank_t src = any_source;
    tag_t tag = any_tag;
    ClockStamp vc;  ///< the candidate send's vector clock (may be null)
  };

  /// Candidates of the wildcard pattern (ctx, ANY_SOURCE, tag): the first
  /// matching queued envelope of every distinct sender, ascending by sender
  /// rank.  Called by the verify scheduler's monitor thread while the owner
  /// rank is held at the wildcard fence.
  [[nodiscard]] std::vector<WildcardCandidate> wildcard_candidates(
      context_t ctx, tag_t tag) const;

  /// Discard every queued envelope and posted receive, reporting what
  /// leaked — the finalize()/teardown accounting pass.  Waits out copies
  /// in flight first.
  MailboxDrain drain();

 private:
  struct PostedRecv {
    context_t context;
    rank_t source;
    tag_t tag;
    std::span<std::byte> buffer;
    /// Non-owning for a blocking recv (its ticket lives on its stack).
    std::shared_ptr<RecvTicket> ticket;
    TypeSig expected{};  ///< receive-side type signature (empty = raw)
    bool blocking = false;  ///< a published blocking recv, not an irecv
  };

  /// True when the (ctx,source,tag) pattern matches envelope `e`.
  static bool matches(context_t ctx, rank_t source, tag_t tag,
                      const Envelope& e) noexcept {
    return e.context == ctx && (source == any_source || source == e.src) &&
           (tag == any_tag || tag == e.tag);
  }

  /// Throws if the job (or this rank's failure domain) has aborted.
  /// Caller must hold `mutex_`.
  void check_abort_locked() const;

  /// Waits until `pred` or deadline/abort: a bounded number of yield rounds
  /// (none under verification), then parks on the condition variable —
  /// but not while a sender copies into `ticket` (the waited receive, if
  /// any).  Caller must hold `lock`.  Throws on timeout or abort; the
  /// timeout error names the unmatched (context, source, tag) pattern and
  /// the queued-envelope count so deadlocks identify the missing message.
  template <class Pred>
  void wait_locked(std::unique_lock<std::mutex>& lock, Deadline deadline,
                   Pred pred, const char* operation, context_t ctx,
                   rank_t source, tag_t tag,
                   const RecvTicket* ticket = nullptr);

  /// Find the first queued envelope matching the pattern. Caller holds lock.
  [[nodiscard]] std::deque<Envelope>::iterator find_locked(context_t ctx,
                                                           rank_t source,
                                                           tag_t tag);

  /// Consume `ticket` for the leak audit exactly once. Caller holds `mutex_`.
  void account_consumed_locked(RecvTicket& ticket) const;

  /// Entry of every receive-side pattern: counts a wildcard (ANY_SOURCE)
  /// receive and, under verification, holds the owner at the scheduler
  /// until a sender is chosen, returning that exact source.  Otherwise
  /// returns `source` unchanged.  Called without `mutex_`.
  [[nodiscard]] rank_t resolve_source(context_t ctx, rank_t source, tag_t tag,
                                      const char* operation);

  /// The matched-envelope path of recv and recv_take: block until a queued
  /// envelope matches, then copy its payload into `buffer` — or, when
  /// `take` is non-null, move it there — and dequeue it.
  Status receive(context_t ctx, rank_t source, tag_t tag, Deadline deadline,
                 const TypeSig& expected, std::span<std::byte> buffer,
                 std::vector<std::byte>* take);

  /// Complete receive `r` with matched envelope `env`, the one completion
  /// routine of deliver and post_recv.  Under `lock`: report the match and
  /// claim the ticket; outside it: copy the payload into `r.buffer`; under
  /// it again: mark the ticket done.  Returns false, leaving `env` for the
  /// queue, when a blocking receive's buffer is too small.
  bool complete(std::unique_lock<std::mutex>& lock, const PostedRecv& r,
                const Envelope& env);

  /// Block until no sender is copying into `ticket`'s buffer.
  void await_copy_locked(std::unique_lock<std::mutex>& lock,
                         const RecvTicket& ticket);

  /// Report a delivery that has reached its final place (a completed
  /// receive or the queue) and count it per context.  Caller holds
  /// `mutex_`.
  void delivered_locked(const Envelope& env);

  const mph::atomic<bool>& abort_flag_;
  const std::string& abort_reason_;
  rank_t owner_rank_;
  Observer* observer_;
  Interposer* interposer_;
  JobClock clock_;
  bool verify_;  ///< interposer_ serializes match decisions

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;          ///< unmatched arrivals, in order
  std::vector<PostedRecv> posted_;      ///< outstanding posted receives
  std::size_t queue_high_water_ = 0;    ///< max queue_ size ever seen
  std::size_t copies_in_flight_ = 0;    ///< claimed copies (see complete)
  /// Deliveries per context (few contexts per rank: linear scan under the
  /// deliver-side lock).
  std::vector<std::pair<context_t, std::uint64_t>> delivered_by_context_;
  mph::atomic<std::uint64_t> wildcard_recvs_{0};

  // Failure-domain abort channel (null until set_domain).
  const mph::atomic<bool>* domain_flag_ = nullptr;
  const std::string* domain_reason_ = nullptr;
};

}  // namespace minimpi
