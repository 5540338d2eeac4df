#include "src/minimpi/verify/verify_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "src/minimpi/job.hpp"
#include "src/minimpi/mailbox.hpp"
#include "src/minimpi/verify/trace.hpp"
#include "src/util/diagnostics.hpp"

namespace minimpi::verify {

namespace {

/// a happened-before-or-equals b, component-wise.
bool clock_leq(const std::vector<std::uint64_t>& a,
               const std::vector<std::uint64_t>& b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] > b[i]) return false;
  }
  for (std::size_t i = n; i < a.size(); ++i) {
    if (a[i] > 0) return false;
  }
  return true;
}

/// True when at least one candidate pair is causally unordered.
bool any_concurrent(
    const std::vector<Mailbox::WildcardCandidate>& candidates) noexcept {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const ClockStamp& a = candidates[i].vc;
      const ClockStamp& b = candidates[j].vc;
      if (a == nullptr || b == nullptr) return true;  // unknown = assume race
      if (!clock_leq(*a, *b) && !clock_leq(*b, *a)) return true;
    }
  }
  return false;
}

}  // namespace

std::string RaceRecord::to_string(
    const std::function<std::string(rank_t)>& label) const {
  const auto name = [&](rank_t r) { return rank_name(label, r); };
  std::ostringstream out;
  out << "wildcard race: " << name(owner) << " " << op
      << "(ANY_SOURCE) on (context=" << context
      << ", tag=" << tag_name(tag) << ") matchable by {";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i != 0) out << ", ";
    out << name(candidates[i]);
  }
  out << "} — senders are "
      << (concurrent ? "causally concurrent" : "causally ordered");
  return out.str();
}

VerifyScheduler::VerifyScheduler(DecideFn decide)
    : decide_(std::move(decide)) {}

VerifyScheduler::~VerifyScheduler() { stop(); }

void VerifyScheduler::bind(Job* job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    const auto n = static_cast<std::size_t>(job->world_size());
    ranks_.assign(n, RankState{});
    clocks_.assign(n, std::vector<std::uint64_t>(n, 0));
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

void VerifyScheduler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void VerifyScheduler::rank_started(rank_t world_rank) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (world_rank < 0 || world_rank >= static_cast<rank_t>(ranks_.size())) {
    return;
  }
  ranks_[static_cast<std::size_t>(world_rank)].state = RunState::running;
  ++version_;
}

void VerifyScheduler::rank_finished(rank_t world_rank) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (world_rank < 0 || world_rank >= static_cast<rank_t>(ranks_.size())) {
      return;
    }
    ranks_[static_cast<std::size_t>(world_rank)].state = RunState::finished;
    ++version_;
  }
  // A finished rank can never send again: quiescence may now hold.
  monitor_cv_.notify_all();
}

bool VerifyScheduler::admit(Envelope& env, rank_t /*dest*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const rank_t src = env.src;
  if (src < 0 || src >= static_cast<rank_t>(ranks_.size())) return true;
  const auto s = static_cast<std::size_t>(src);
  // This is the sender's own thread: if it was marked polling it is now
  // visibly progressing.
  if (ranks_[s].state == RunState::polling) {
    ranks_[s].state = RunState::running;
    ranks_[s].spins = 0;
  }
  std::vector<std::uint64_t>& clock = clocks_[s];
  clock[s] += 1;
  ++version_;
  env.vc = std::make_shared<const std::vector<std::uint64_t>>(clock);
  return true;
}

void VerifyScheduler::envelope_delivered(rank_t owner,
                                         const Envelope& /*env*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) return;
  ranks_[static_cast<std::size_t>(owner)].epoch += 1;
  ++version_;
}

std::exception_ptr VerifyScheduler::envelope_matched(
    rank_t owner, const Envelope& env, const TypeSig& /*expected*/,
    std::size_t /*capacity*/, bool /*posted*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) return nullptr;
  const auto d = static_cast<std::size_t>(owner);
  std::vector<std::uint64_t>& clock = clocks_[d];
  if (const ClockStamp& stamp = env.vc; stamp != nullptr) {
    const std::size_t n = std::min(clock.size(), stamp->size());
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = std::max(clock[i], (*stamp)[i]);
    }
  }
  clock[d] += 1;
  // NB: no run-state change — a posted receive's match runs on the
  // *sender's* thread; only the owner's own thread moves its state.
  return nullptr;
}

void VerifyScheduler::wait_blocked(rank_t owner, const BlockedWait& wait) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) return;
  RankState& st = ranks_[static_cast<std::size_t>(owner)];
  st.state = RunState::blocked;
  st.waits_on = wait.waits_on;
  st.op = wait.op;
  st.ctx = wait.context;
  st.tag = wait.tag;
  st.spins = 0;
  // Same critical section as the failed match check (caller holds the
  // owner's mailbox mutex), so seen_epoch == epoch proves the owner has
  // examined every delivery so far.
  st.seen_epoch = st.epoch;
  ++version_;
}

void VerifyScheduler::wait_unblocked(rank_t owner, const BlockedWait& /*wait*/,
                                     std::uint64_t /*t1_ns*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) return;
  RankState& st = ranks_[static_cast<std::size_t>(owner)];
  st.state = RunState::running;
  st.spins = 0;
  ++version_;
}

void VerifyScheduler::poll_missed(rank_t owner, rank_t /*source*/,
                                  const char* /*op*/, context_t /*ctx*/,
                                  tag_t /*tag*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) return;
  RankState& st = ranks_[static_cast<std::size_t>(owner)];
  st.spins = st.state == RunState::polling ? st.spins + 1 : 1;
  st.state = RunState::polling;
  st.seen_epoch = st.epoch;
  ++version_;
}

rank_t VerifyScheduler::resolve_wildcard(rank_t owner, context_t ctx,
                                         tag_t tag, const char* op) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (owner < 0 || owner >= static_cast<rank_t>(ranks_.size())) {
    return any_source;
  }
  RankState& st = ranks_[static_cast<std::size_t>(owner)];
  st.state = RunState::held;
  st.ctx = ctx;
  st.tag = tag;
  st.op = op;
  st.waits_on = any_source;
  st.spins = 0;
  st.has_chosen = false;
  ++version_;
  monitor_cv_.notify_all();
  cv_.wait(lock, [&] {
    return st.has_chosen || stopping_ ||
           (job_ != nullptr && job_->aborted());
  });
  const rank_t out = st.has_chosen ? st.chosen : any_source;
  st.has_chosen = false;
  st.state = RunState::running;
  ++version_;
  return out;
}

rank_t VerifyScheduler::resolve_immediate(
    rank_t owner, context_t ctx, tag_t tag,
    const std::vector<rank_t>& candidates) {
  DecisionPoint point;
  point.owner = owner;
  point.context = ctx;
  point.tag = tag;
  point.op = "iprobe";
  point.candidates = candidates;
  point.immediate = true;
  {
    // Caller holds the owner's mailbox mutex; mailbox -> scheduler is the
    // sanctioned order.  Candidate clocks are unavailable here (reading
    // them would re-enter the same mailbox), so the race is conservatively
    // flagged concurrent.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (candidates.size() >= 2) {
      races_.push_back(
          RaceRecord{owner, ctx, tag, "iprobe", candidates, true});
    }
  }
  return decide_(point);
}

std::vector<RaceRecord> VerifyScheduler::races() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return races_;
}

bool VerifyScheduler::quiescent(const RankState& st) noexcept {
  switch (st.state) {
    case RunState::finished:
    case RunState::held:
      return true;
    case RunState::blocked:
      return st.seen_epoch == st.epoch;
    case RunState::polling:
      // A spinning rank that has examined every delivery cannot match; but
      // it is still free to send between probes, so polling ranks count
      // for *fence* quiescence only after repeated misses, and never for
      // the stuck-state proof (see try_decide).
      return st.spins >= 2 && st.seen_epoch == st.epoch;
    case RunState::not_started:
    case RunState::running:
      return false;
  }
  return false;
}

std::string VerifyScheduler::describe_stuck_locked() const {
  std::ostringstream out;
  out << "schedule deadlock: no rank can make progress";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& st = ranks_[r];
    std::string label =
        job_ != nullptr ? job_->rank_label(static_cast<rank_t>(r)) : "";
    if (label.empty()) label = "rank";
    out << "; " << label << "[" << r << "] ";
    switch (st.state) {
      case RunState::finished:
        out << "finished";
        break;
      case RunState::held:
        out << "held at wildcard " << st.op << "(ANY_SOURCE) (context="
            << st.ctx << ", tag=" << st.tag << ") with no matchable sender";
        break;
      case RunState::blocked:
        out << "blocked in " << st.op << "<-" << st.waits_on << " (context="
            << st.ctx << ", tag=" << st.tag << ")";
        break;
      case RunState::polling:
        out << "polling";
        break;
      case RunState::not_started:
      case RunState::running:
        out << "running";
        break;
    }
  }
  return out.str();
}

void VerifyScheduler::monitor_loop() {
  mph::util::set_thread_label("mph_verify monitor");
  for (;;) {
    {
      std::unique_lock<std::mutex> wait_lock(monitor_mutex_);
      monitor_cv_.wait_for(wait_lock, std::chrono::microseconds(200));
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    try_decide();
  }
}

void VerifyScheduler::try_decide() {
  struct HeldQuery {
    rank_t owner;
    context_t ctx;
    tag_t tag;
    const char* op;
  };
  std::vector<HeldQuery> held;
  bool any_polling = false;
  std::uint64_t version_snapshot = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || job_ == nullptr) return;
    if (job_->aborted()) {
      cv_.notify_all();  // release any held rank into its abort unwind
      return;
    }
    bool all_quiescent = true;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      const RankState& st = ranks_[r];
      if (st.state == RunState::held && !st.has_chosen) {
        // A held rank whose failure domain died must unwind, not wait for
        // a decision that will never come (its peers are gone).
        const int domain = job_->domain_of(static_cast<rank_t>(r));
        if (domain >= 0 && job_->domain_aborted(domain)) {
          ranks_[r].has_chosen = true;
          ranks_[r].chosen = any_source;
          ++version_;
          cv_.notify_all();
          return;
        }
        held.push_back(HeldQuery{static_cast<rank_t>(r), st.ctx, st.tag,
                                 st.op});
      }
      if (!quiescent(st)) all_quiescent = false;
      if (st.state == RunState::polling) any_polling = true;
    }
    if (held.empty() || !all_quiescent) return;
    version_snapshot = version_;
  }

  // Read candidate sets with no scheduler lock held (lock order: a mailbox
  // mutex may be taken before the scheduler's, never after).
  std::vector<std::vector<Mailbox::WildcardCandidate>> candidates;
  candidates.reserve(held.size());
  for (const HeldQuery& h : held) {
    candidates.push_back(job_->mailbox(h.owner).wildcard_candidates(h.ctx,
                                                                    h.tag));
  }

  bool stuck = false;
  rank_t stuck_culprit = -1;
  std::string stuck_label;
  std::string stuck_report;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || version_ != version_snapshot) return;  // world moved on
    std::size_t pick = held.size();
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (!candidates[i].empty()) {
        pick = i;
        break;
      }
    }
    if (pick == held.size()) {
      // Every held rank has an empty candidate set while everyone else is
      // hard-blocked or finished: no future send can ever happen.  A
      // polling rank breaks the proof (it may send between probes), so
      // leave those runs to the recv timeout.
      if (any_polling || stuck_reported_) return;
      stuck_reported_ = true;
      stuck = true;
      stuck_culprit = held.front().owner;
      stuck_label = job_->rank_label(stuck_culprit);
      stuck_report = describe_stuck_locked();
    } else {
      const HeldQuery& h = held[pick];
      DecisionPoint point;
      point.owner = h.owner;
      point.context = h.ctx;
      point.tag = h.tag;
      point.op = h.op;
      point.immediate = false;
      for (const Mailbox::WildcardCandidate& c : candidates[pick]) {
        point.candidates.push_back(c.src);
      }
      if (point.candidates.size() >= 2) {
        races_.push_back(RaceRecord{h.owner, h.ctx, h.tag, h.op,
                                    point.candidates,
                                    any_concurrent(candidates[pick])});
      }
      RankState& st = ranks_[static_cast<std::size_t>(h.owner)];
      st.has_chosen = true;
      st.chosen = decide_(point);
      ++version_;
      cv_.notify_all();
    }
  }
  if (stuck) {
    // Abort with NO scheduler lock held: Job::abort wakes every mailbox,
    // and mailbox mutexes must never be acquired under the scheduler's.
    MPH_DIAG_LOG(error) << "mph_verify: " << stuck_report;
    job_->abort(AbortInfo{stuck_culprit, stuck_label, "schedule-deadlock",
                          stuck_report});
    cv_.notify_all();
  }
}

}  // namespace minimpi::verify
