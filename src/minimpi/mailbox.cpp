#include "src/minimpi/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

namespace minimpi {

namespace {

/// Failed match checks a wait spends yielding (unlock, yield, re-lock)
/// before it parks on the condition variable.  Hand-offs that complete
/// within the budget skip the futex sleep and wake-up; a wait that outlasts
/// it parks as before.  Measured with one rank per CPU and with up to 32
/// ranks per CPU (DESIGN.md §9, "Wake-up").
constexpr int kYieldRounds = 50;

std::string pattern_string(context_t ctx, rank_t source, tag_t tag) {
  std::string out = "(context=" + std::to_string(ctx) + ", source=";
  out += source == any_source ? "*" : std::to_string(source);
  out += ", tag=";
  out += tag == any_tag ? "*" : std::to_string(tag);
  out += ")";
  return out;
}

Error truncation_error(const char* receive, std::size_t buffer_bytes,
                       std::size_t payload_bytes) {
  return Error(Errc::truncation, std::string(receive) + " buffer of " +
                                     std::to_string(buffer_bytes) +
                                     " bytes matched a message of " +
                                     std::to_string(payload_bytes) + " bytes");
}

}  // namespace

void Mailbox::set_domain(const mph::atomic<bool>* flag,
                         const std::string* reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  domain_flag_ = flag;
  domain_reason_ = reason;
}

void Mailbox::check_abort_locked() const {
  // Acquire pairs with Job::abort's release store: observing the flag
  // guarantees the write-once abort_reason_ is visible (the implicit
  // seq_cst load this replaces was stronger than the protocol needs on
  // this hot path; mph_racer litmus mailbox_abort_flag).
  if (abort_flag_.load(std::memory_order_acquire)) {
    throw AbortedError(abort_reason_);
  }
  if (domain_flag_ != nullptr &&
      domain_flag_->load(std::memory_order_acquire)) {
    throw AbortedError(*domain_reason_);
  }
}

template <class Pred>
void Mailbox::wait_locked(std::unique_lock<std::mutex>& lock, Deadline deadline,
                          Pred pred, const char* operation, context_t ctx,
                          rank_t source, tag_t tag, const RecvTicket* ticket) {
  // While blocked, this rank is registered with the observers (the
  // checker's wait-for edge, the scheduler's blocked state, the blocked
  // span and blocked-time gauge): at the first failed predicate check, which
  // starts the wait, and again before every park on `cv_` — each time under
  // `mutex_`, the same mutex deliver() reports deliveries under, so
  // "seen == epoch" proves the waiter examined every delivery and matched
  // nothing.  The yield rounds in between release the mutex, so the park
  // re-registers to cover deliveries that landed during them.
  struct BlockedScope {
    Observer* observer;
    rank_t owner;
    const JobClock& clock;
    BlockedWait wait;
    bool registered = false;
    void blocked() {
      if (observer == nullptr) return;
      if (!registered) {
        // Blocked spans take the enclosing collective's label when one is
        // active ("barrier", "bcast", ...), the raw operation otherwise —
        // that label drives the recv-wait vs collective-wait breakdown.
        const char* scoped = ScopedCheckOp::current();
        wait.label = scoped != nullptr ? scoped : wait.op;
        wait.t0_ns = clock.now_ns();
        registered = true;
      }
      observer->wait_blocked(owner, wait);
    }
    ~BlockedScope() {
      if (registered) observer->wait_unblocked(owner, wait, clock.now_ns());
    }
  } scope{observer_, owner_rank_, clock_,
          BlockedWait{source, operation, operation, ctx, tag, 0}};

  // Yield before parking, except under verification: there the verify
  // scheduler owns blocking (its run state follows wait_blocked), so a rank
  // parks at its first failed check exactly as the schedules assume.  A
  // receive a sender is copying into keeps yielding until the copy ends:
  // nothing else has to happen first, and a park would add a wake-up.
  int yields = 0;
  while (!pred()) {
    check_abort_locked();
    const bool copying = ticket != nullptr && ticket->copying;
    const bool yielding = !verify_ && (yields < kYieldRounds || copying);
    if (yields == 0 || !yielding) scope.blocked();
    if (yielding) {
      ++yields;
      lock.unlock();
      std::this_thread::yield();
      // Re-take the mutex without sleeping on it: its holder is a sender
      // finishing a delivery, often this very one, and a futex sleep
      // would add a wake-up to it (4 KiB bench_p2p round trips took 19 us
      // instead of 5.5 us).
      while (!lock.try_lock()) std::this_thread::yield();
      continue;
    }
    if (deadline == Deadline::max()) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      check_abort_locked();
      if (pred()) return;
      scope.blocked();
      // Upgrade: an observer may replace the bare timeout with a precise
      // report (the checker throws the wait-for cycle this rank sits on).
      if (observer_ != nullptr) observer_->wait_timed_out(owner_rank_);
      throw Error(Errc::timeout,
                  std::string("blocking ") + operation +
                      " exceeded the job receive timeout waiting for " +
                      pattern_string(ctx, source, tag) + "; " +
                      std::to_string(queue_.size()) +
                      " unmatched envelope(s) queued (likely deadlock: a "
                      "matching send was never issued)");
    }
  }
  check_abort_locked();
}

std::deque<Envelope>::iterator Mailbox::find_locked(context_t ctx,
                                                    rank_t source, tag_t tag) {
  return std::find_if(queue_.begin(), queue_.end(), [&](const Envelope& e) {
    return matches(ctx, source, tag, e);
  });
}

void Mailbox::account_consumed_locked(RecvTicket& ticket) const {
  if (ticket.accounted) return;
  ticket.accounted = true;
  if (observer_ != nullptr) observer_->request_consumed(owner_rank_);
}

rank_t Mailbox::resolve_source(context_t ctx, rank_t source, tag_t tag,
                               const char* operation) {
  if (source != any_source) return source;
  wildcard_recvs_.fetch_add(1, std::memory_order_relaxed);
  if (!verify_) return source;
  // Hold the rank at the scheduler (no mailbox mutex held: the monitor
  // thread inspects this mailbox to enumerate candidates) until the
  // exploration engine picks the sender this wildcard must match.  The
  // subsequent exact-source match is deterministic: MPI non-overtaking
  // plus single-threaded senders fix the envelope a (src, tag) pattern
  // matches.
  return interposer_->resolve_wildcard(owner_rank_, ctx, tag, operation);
}

bool Mailbox::complete(std::unique_lock<std::mutex>& lock,
                       const PostedRecv& r, const Envelope& env) {
  RecvTicket& ticket = *r.ticket;
  const std::size_t bytes = env.payload.size();
  std::exception_ptr bad =
      observer_ != nullptr
          ? observer_->envelope_matched(owner_rank_, env, r.expected,
                                        r.buffer.size(), !r.blocking)
          : nullptr;
  if (bad) {
    ticket.error = std::move(bad);
  } else if (!ticket.detached) {  // a detached receive discards the payload
    if (bytes > r.buffer.size()) {
      ticket.error = std::make_exception_ptr(truncation_error(
          r.blocking ? "receive" : "posted receive", r.buffer.size(), bytes));
      if (r.blocking) {
        ticket.done = true;
        return false;  // the envelope stays queued, as for a queued match
      }
    } else {
      if (bytes > 0) {
        // Claimed: the copy runs without the mutex, so other senders and
        // the owner's queue stay available; the ticket is out of posted_,
        // and whatever ends the buffer's lifetime waits for `copying`.
        ticket.copying = true;
        ++copies_in_flight_;
        lock.unlock();
        std::memcpy(r.buffer.data(), env.payload.data(), bytes);
        lock.lock();
        ticket.copying = false;
        --copies_in_flight_;
      }
      ticket.status = Status{env.src, env.tag, bytes};
    }
  }
  ticket.flow = env.flow;
  ticket.done = true;
  return true;
}

void Mailbox::await_copy_locked(std::unique_lock<std::mutex>& lock,
                                const RecvTicket& ticket) {
  cv_.wait(lock, [&] { return !ticket.copying; });
}

void Mailbox::delivered_locked(const Envelope& env) {
  // Reported under the same mutex the owner's wait predicate runs under,
  // and only once the envelope is in its final place (a done receive or
  // the queue): a blocked waiter whose seen-epoch equals the current epoch
  // has provably examined this (and every earlier) delivery.
  if (observer_ != nullptr) observer_->envelope_delivered(owner_rank_, env);
  for (auto& [context, count] : delivered_by_context_) {
    if (context == env.context) {
      ++count;
      return;
    }
  }
  delivered_by_context_.emplace_back(env.context, 1);
}

void Mailbox::deliver(Envelope&& env) {
  // Observers see the send before any interposer: an injected drop is still
  // a send the application issued (the sender/delivered gap is exactly the
  // in-flight + dropped message count the monitor surfaces).  Then fault
  // rules and the scheduler's vector-clock stamp, still in the sender's
  // thread and before the destination mailbox is locked.
  if (observer_ != nullptr) observer_->envelope_sent(env, owner_rank_);
  if (interposer_ != nullptr && !interposer_->admit(env, owner_rank_)) {
    return;  // injected message loss
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Complete the earliest-posted matching receive (irecvs and waiting
    // blocking recvs share posted_, so its order is the matching order).
    const auto it = std::find_if(
        posted_.begin(), posted_.end(), [&](const PostedRecv& p) {
          return matches(p.context, p.source, p.tag, env);
        });
    if (it != posted_.end()) {
      const PostedRecv r = std::move(*it);
      posted_.erase(it);
      if (complete(lock, r, env)) {
        delivered_locked(env);
        break;
      }
      env.own();  // rare: a too-small blocking buffer, queued under the lock
    }
    if (env.owned()) {
      delivered_locked(env);
      queue_.push_back(std::move(env));
      queue_high_water_ = std::max(queue_high_water_, queue_.size());
      if (observer_ != nullptr) {
        observer_->queue_depth_changed(owner_rank_, queue_.size());
      }
      break;
    }
    // Unexpected: copy into owned storage without the mutex, then match
    // again — a receive may have been posted meanwhile.
    lock.unlock();
    env.own();
    lock.lock();
  }
  lock.unlock();
  cv_.notify_all();
}

Status Mailbox::receive(context_t ctx, rank_t source, tag_t tag,
                        Deadline deadline, const TypeSig& expected,
                        std::span<std::byte> buffer,
                        std::vector<std::byte>* take) {
  const std::uint64_t t0 = observer_ != nullptr ? clock_.now_ns() : 0;
  source = resolve_source(ctx, source, tag, "recv");
  // A receive into a buffer publishes it in posted_ at its first failed
  // match, so the sender copies straight into it.  Not recv_take (it has
  // no buffer), nor under verification, where matching stays on the
  // receiver's side (DESIGN.md §10).  Publishing allocates nothing: the
  // ticket lives here, behind a non-owning pointer, and is withdrawn from
  // posted_ before this returns.
  const bool publish = take == nullptr && !verify_;
  RecvTicket ticket;
  bool published = false;
  std::unique_lock<std::mutex> lock(mutex_);
  std::deque<Envelope>::iterator it;
  try {
    wait_locked(
        lock, deadline,
        [&] {
          // Once published, only a sender completes this receive: no
          // matching envelope can reach the queue ahead of it, and a
          // claimed one must not be re-published or looked for again.
          if (published) return ticket.done;
          it = find_locked(ctx, source, tag);
          if (it != queue_.end()) return true;
          if (publish) {
            posted_.push_back(PostedRecv{
                ctx, source, tag, buffer,
                std::shared_ptr<RecvTicket>(std::shared_ptr<void>(), &ticket),
                expected, true});
            published = true;
          }
          return false;
        },
        "recv", ctx, source, tag, &ticket);
  } catch (...) {
    if (published) {
      std::erase_if(posted_, [&](const PostedRecv& p) {
        return p.ticket.get() == &ticket;
      });
      await_copy_locked(lock, ticket);
    }
    throw;
  }
  Status status;
  std::uint64_t flow = 0;
  if (published) {
    if (ticket.error) std::rethrow_exception(ticket.error);
    status = ticket.status;
    flow = ticket.flow;
  } else {
    const std::size_t capacity =
        take != nullptr ? it->payload.size() : buffer.size();
    if (observer_ != nullptr) {
      if (std::exception_ptr bad = observer_->envelope_matched(
              owner_rank_, *it, expected, capacity, false)) {
        queue_.erase(it);
        std::rethrow_exception(bad);
      }
    }
    if (it->payload.size() > capacity) {
      throw truncation_error("receive", capacity, it->payload.size());
    }
    status = Status{it->src, it->tag, it->payload.size()};
    flow = it->flow;
    if (take != nullptr) {
      *take = std::move(it->storage);  // queued envelopes are owned
    } else if (!it->payload.empty()) {
      std::memcpy(buffer.data(), it->payload.data(), it->payload.size());
    }
    queue_.erase(it);
    if (observer_ != nullptr) {
      observer_->queue_depth_changed(owner_rank_, queue_.size());
    }
  }
  if (observer_ != nullptr) {
    observer_->recv_completed(owner_rank_, "recv", status, ctx, flow, t0,
                              clock_.now_ns());
  }
  return status;
}

Status Mailbox::recv(context_t ctx, rank_t source, tag_t tag,
                     std::span<std::byte> buffer, Deadline deadline,
                     TypeSig expected) {
  return receive(ctx, source, tag, deadline, expected, buffer, nullptr);
}

std::pair<Status, std::vector<std::byte>> Mailbox::recv_take(
    context_t ctx, rank_t source, tag_t tag, Deadline deadline,
    TypeSig expected) {
  std::vector<std::byte> payload;
  const Status status =
      receive(ctx, source, tag, deadline, expected, {}, &payload);
  return {status, std::move(payload)};
}

std::shared_ptr<RecvTicket> Mailbox::post_recv(context_t ctx, rank_t source,
                                               tag_t tag,
                                               std::span<std::byte> buffer,
                                               TypeSig expected) {
  if (verify_ && source == any_source) {
    // A posted wildcard receive would be matched by arrival order inside
    // deliver(), outside the scheduler's decision points.  Exploration
    // would silently miss schedules; refuse instead (documented limit).
    throw Error(Errc::invalid_argument,
                "schedule verification does not support nonblocking wildcard "
                "receives (irecv with source=ANY_SOURCE); use a blocking "
                "recv or an exact source");
  }
  source = resolve_source(ctx, source, tag, "irecv");
  auto ticket = std::make_shared<RecvTicket>();
  ticket->context = ctx;
  ticket->source = source;
  ticket->tag = tag;
  PostedRecv r{ctx, source, tag, buffer, ticket, expected};
  std::unique_lock<std::mutex> lock(mutex_);
  if (observer_ != nullptr) {
    observer_->recv_posted(owner_rank_, source, ctx, tag, buffer.size());
  }
  auto it = find_locked(ctx, source, tag);
  if (it == queue_.end()) {
    posted_.push_back(std::move(r));
    return ticket;
  }
  const Envelope env = std::move(*it);
  queue_.erase(it);
  if (observer_ != nullptr) {
    observer_->queue_depth_changed(owner_rank_, queue_.size());
  }
  complete(lock, r, env);
  lock.unlock();  // so `env` frees its storage outside the mutex
  return ticket;
}

Status Mailbox::wait(const std::shared_ptr<RecvTicket>& ticket,
                     Deadline deadline) {
  const std::uint64_t t0 = observer_ != nullptr ? clock_.now_ns() : 0;
  std::unique_lock<std::mutex> lock(mutex_);
  try {
    wait_locked(
        lock, deadline, [&] { return ticket->done; }, "wait",
        ticket->context, ticket->source, ticket->tag, ticket.get());
  } catch (...) {
    await_copy_locked(lock, *ticket);  // the unwind may free the buffer
    throw;
  }
  account_consumed_locked(*ticket);
  if (ticket->error) std::rethrow_exception(ticket->error);
  if (observer_ != nullptr) {
    observer_->recv_completed(owner_rank_, "wait", ticket->status,
                              ticket->context, ticket->flow, t0,
                              clock_.now_ns());
  }
  return ticket->status;
}

bool Mailbox::test(const std::shared_ptr<RecvTicket>& ticket, Status* out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Like iprobe: a test-spin loop must observe a job abort (e.g. the
  // deadlock checker reporting the very cycle this spin is part of), or
  // the spinning rank outlives the abort and the job never joins.
  check_abort_locked();
  if (!ticket->done) {
    // A test miss is a poll: the checker registers a *soft* wait-for edge
    // (a spinning wait_any loop deadlocks exactly like a blocking wait
    // would) and the scheduler learns the rank may be spinning.
    if (observer_ != nullptr) {
      observer_->poll_missed(owner_rank_, ticket->source, "test",
                             ticket->context, ticket->tag);
    }
    return false;
  }
  if (observer_ != nullptr) observer_->poll_hit(owner_rank_);
  account_consumed_locked(*ticket);
  if (ticket->error) std::rethrow_exception(ticket->error);
  if (out != nullptr) *out = ticket->status;
  return true;
}

void Mailbox::cancel(const std::shared_ptr<RecvTicket>& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  account_consumed_locked(*ticket);
  std::erase_if(posted_,
                [&](const PostedRecv& p) { return p.ticket == ticket; });
  await_copy_locked(lock, *ticket);
}

void Mailbox::detach(const std::shared_ptr<RecvTicket>& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  ticket->detached = true;
  await_copy_locked(lock, *ticket);
}

Status Mailbox::probe(context_t ctx, rank_t source, tag_t tag,
                      Deadline deadline) {
  source = resolve_source(ctx, source, tag, "probe");
  std::unique_lock<std::mutex> lock(mutex_);
  std::deque<Envelope>::iterator it;
  wait_locked(
      lock, deadline,
      [&] {
        it = find_locked(ctx, source, tag);
        return it != queue_.end();
      },
      "probe", ctx, source, tag);
  return Status{it->src, it->tag, it->payload.size()};
}

std::optional<Status> Mailbox::iprobe(context_t ctx, rank_t source, tag_t tag) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_abort_locked();
  if (verify_ && source == any_source) {
    // Nonblocking wildcard probe: cannot fence (iprobe must not block), but
    // the *choice among currently-queued senders* is still a decision the
    // engine must control and record.  A miss stays a miss.
    std::vector<rank_t> srcs;
    for (const Envelope& e : queue_) {
      if (matches(ctx, any_source, tag, e) &&
          std::find(srcs.begin(), srcs.end(), e.src) == srcs.end()) {
        srcs.push_back(e.src);
      }
    }
    if (!srcs.empty()) {
      std::sort(srcs.begin(), srcs.end());
      source = srcs.size() == 1 ? srcs.front()
                                : interposer_->resolve_immediate(
                                      owner_rank_, ctx, tag, srcs);
    }
  }
  auto it = find_locked(ctx, source, tag);
  if (it == queue_.end()) {
    // A poll miss: an iprobe spin loop whose peer is blocked waiting on
    // *us* is a deadlock, and the checker's soft wait-for edge reports it
    // as a cycle instead of timing out (or hanging).
    if (observer_ != nullptr) {
      observer_->poll_missed(owner_rank_, source, "iprobe", ctx, tag);
    }
    return std::nullopt;
  }
  if (observer_ != nullptr) observer_->poll_hit(owner_rank_);
  if (source == any_source) {
    // Counted on the hit only: a polling loop of misses is one logical
    // wildcard receive, not thousands.
    wildcard_recvs_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status{it->src, it->tag, it->payload.size()};
}

std::vector<Mailbox::WildcardCandidate> Mailbox::wildcard_candidates(
    context_t ctx, tag_t tag) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WildcardCandidate> out;
  for (const Envelope& e : queue_) {
    if (!matches(ctx, any_source, tag, e)) continue;
    const bool seen =
        std::any_of(out.begin(), out.end(),
                    [&](const WildcardCandidate& c) { return c.src == e.src; });
    if (!seen) out.push_back(WildcardCandidate{e.src, e.tag, e.vc});
  }
  std::sort(out.begin(), out.end(),
            [](const WildcardCandidate& a, const WildcardCandidate& b) {
              return a.src < b.src;
            });
  return out;
}

void Mailbox::wake_all() {
  // Lock/unlock pairs with waiters' predicate checks so none miss the abort.
  { const std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

std::size_t Mailbox::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t Mailbox::queue_high_water() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_high_water_;
}

std::vector<std::pair<context_t, std::uint64_t>>
Mailbox::delivered_by_context() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return delivered_by_context_;
}

std::size_t Mailbox::posted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return posted_.size();
}

bool Mailbox::busy() const {
  if (!mutex_.try_lock()) return true;
  mutex_.unlock();
  return false;
}

MailboxDrain Mailbox::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return copies_in_flight_ == 0; });
  MailboxDrain report;
  report.envelopes = queue_.size();
  report.posted_recvs = posted_.size();
  queue_.clear();
  posted_.clear();
  return report;
}

}  // namespace minimpi
