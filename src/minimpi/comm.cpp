#include "src/minimpi/comm.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <utility>

#include "src/minimpi/collectives.hpp"

namespace minimpi {

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::move(other.state_);
    ticket_ = std::move(other.ticket_);
    immediate_ = other.immediate_;
    immediate_done_ = std::exchange(other.immediate_done_, false);
  }
  return *this;
}

void Request::release() noexcept {
  if (ticket_ != nullptr && state_ != nullptr) {
    state_->mailbox().detach(ticket_);
  }
  ticket_.reset();
}

Status Request::wait() {
  if (immediate_done_) {
    immediate_done_ = false;
    return immediate_;
  }
  if (ticket_ == nullptr || state_ == nullptr) {
    throw Error(Errc::invalid_argument, "wait on an invalid/consumed request");
  }
  const Status status =
      state_->mailbox().wait(ticket_, state_->job->deadline());
  ticket_.reset();
  return state_->localized(status);
}

bool Request::test(Status* out) {
  if (immediate_done_) {
    if (out != nullptr) *out = immediate_;
    return true;
  }
  if (ticket_ == nullptr || state_ == nullptr) {
    throw Error(Errc::invalid_argument, "test on an invalid/consumed request");
  }
  Status status;
  if (!state_->mailbox().test(ticket_, &status)) return false;
  if (out != nullptr) *out = state_->localized(status);
  return true;
}

std::vector<Status> Request::wait_all(std::span<Request> requests) {
  std::vector<Status> statuses;
  statuses.reserve(requests.size());
  for (Request& r : requests) statuses.push_back(r.wait());
  return statuses;
}

std::size_t Request::wait_any(std::span<Request> requests, Status* out) {
  // Poll-with-yield: the mailbox condition variable belongs to single
  // tickets, and any completed request satisfies us.  Completion latency
  // here is bounded by the scheduler quantum, which is acceptable for the
  // waitany use cases (progress loops).
  Deadline deadline = Deadline::max();
  for (;;) {
    bool any_valid = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].valid()) continue;
      any_valid = true;
      if (requests[i].state_ != nullptr) {
        Job& job = *requests[i].state_->job;
        if (job.aborted()) throw AbortedError(job.abort_reason());
        if (deadline == Deadline::max()) deadline = job.deadline();
      }
      Status status;
      if (requests[i].test(&status)) {
        requests[i].wait();  // consume (immediate: already complete)
        if (out != nullptr) *out = status;
        return i;
      }
    }
    if (!any_valid) {
      throw Error(Errc::invalid_argument,
                  "wait_any: no valid (unconsumed) request in the set");
    }
    if (std::chrono::steady_clock::now() > deadline) {
      throw Error(Errc::timeout, "wait_any exceeded the job receive timeout");
    }
    std::this_thread::yield();
  }
}

bool Request::test_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid() && !r.test(nullptr)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Comm: construction and accessors
// ---------------------------------------------------------------------------

Comm Comm::world(std::shared_ptr<Job> job, rank_t my_world_rank) {
  if (job == nullptr) {
    throw Error(Errc::invalid_argument, "world() requires a job");
  }
  const int n = job->world_size();
  if (my_world_rank < 0 || my_world_rank >= n) {
    throw Error(Errc::invalid_rank,
                "world rank " + std::to_string(my_world_rank) +
                    " outside job of size " + std::to_string(n));
  }
  std::vector<rank_t> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
  return from_group(std::move(job), kWorldContext, std::move(identity),
                    my_world_rank);
}

detail::CommState::~CommState() {
  if (job == nullptr || context == kWorldContext) return;
  if (Checker* ck = job->checker()) {
    if (my_rank >= 0 &&
        my_rank < static_cast<rank_t>(to_global.size())) {
      ck->note_comm_destroyed(my_world());
    }
  }
}

Comm Comm::from_group(std::shared_ptr<Job> job, context_t context,
                      std::vector<rank_t> to_global, rank_t my_world_rank) {
  auto state = std::make_shared<detail::CommState>();
  state->job = std::move(job);
  state->context = context;
  state->to_global = std::move(to_global);
  state->to_local.assign(static_cast<std::size_t>(state->job->world_size()),
                         -1);
  rank_t my_local = -1;
  for (std::size_t i = 0; i < state->to_global.size(); ++i) {
    const rank_t g = state->to_global[i];
    if (g < 0 || g >= state->job->world_size()) {
      throw Error(Errc::internal, "communicator group contains world rank " +
                                      std::to_string(g));
    }
    if (state->to_local[static_cast<std::size_t>(g)] != -1) {
      throw Error(Errc::invalid_argument,
                  "communicator group repeats world rank " + std::to_string(g));
    }
    state->to_local[static_cast<std::size_t>(g)] = static_cast<rank_t>(i);
    if (g == my_world_rank) my_local = static_cast<rank_t>(i);
  }
  if (my_local < 0) {
    throw Error(Errc::invalid_argument,
                "constructing a communicator that does not contain the "
                "calling rank");
  }
  state->my_rank = my_local;
  if (context != kWorldContext) {
    if (Checker* ck = state->job->checker()) {
      ck->note_comm_created(my_world_rank);
    }
    if (Tracer* tr = state->job->tracer()) {
      tr->instant(my_world_rank, TraceOp::comm_create, "comm_create",
                  any_source, context, any_tag,
                  state->to_global.size());
    }
  }
  return Comm(std::move(state));
}

detail::CommState& Comm::state() const {
  if (s_ == nullptr) {
    throw Error(Errc::invalid_comm, "operation on a null communicator");
  }
  return *s_;
}

rank_t Comm::rank() const { return state().my_rank; }

int Comm::size() const {
  return static_cast<int>(state().to_global.size());
}

context_t Comm::context() const { return state().context; }

Job& Comm::job() const { return *state().job; }

std::shared_ptr<Job> Comm::job_ptr() const { return state().job; }

rank_t Comm::global_of(rank_t local) const {
  return require_member_global(local, "rank");
}

rank_t Comm::local_of(rank_t world_rank) const noexcept {
  if (s_ == nullptr) return -1;
  if (world_rank < 0 ||
      world_rank >= static_cast<rank_t>(s_->to_local.size())) {
    return -1;
  }
  return s_->to_local[static_cast<std::size_t>(world_rank)];
}

const std::vector<rank_t>& Comm::group() const { return state().to_global; }

rank_t Comm::require_member_global(rank_t local, const char* what) const {
  detail::CommState& st = state();
  if (local < 0 || local >= static_cast<rank_t>(st.to_global.size())) {
    throw Error(Errc::invalid_rank,
                std::string(what) + " " + std::to_string(local) +
                    " outside communicator of size " +
                    std::to_string(st.to_global.size()));
  }
  return st.to_global[static_cast<std::size_t>(local)];
}

rank_t Comm::source_global(rank_t source) const {
  return source == any_source ? any_source
                              : require_member_global(source, "source");
}

void Comm::check_user_tag(tag_t tag) {
  if (tag < 0 || tag > kMaxUserTag) {
    throw Error(Errc::invalid_tag,
                "user tag " + std::to_string(tag) + " outside [0, " +
                    std::to_string(kMaxUserTag) + "]");
  }
}

void Comm::check_user_tag_or_any(tag_t tag) {
  if (tag == any_tag) return;
  check_user_tag(tag);
}

tag_t Comm::next_collective_tag() const {
  detail::CommState& st = state();
  const std::uint32_t seq = st.collective_seq++;
  return kCollectiveTagBase + static_cast<tag_t>(seq % (1u << 23));
}

void Comm::check_collective(const char* op, rank_t root, std::uint64_t count,
                            std::uint32_t elem_size) const {
  detail::CommState& st = state();
  Checker* ck = st.job->checker();
  if (ck == nullptr || !ck->options().collectives) return;
  // Slot key: (context, group leader, this rank's collective sequence).
  // The leader disambiguates disjoint children of one split sharing a
  // context; the sequence is read *before* next_collective_tag() advances
  // it, so all members of the same invocation land on the same slot.
  ck->on_collective(st.context, st.to_global.front(), st.collective_seq, op,
                    root, count, elem_size,
                    static_cast<int>(st.to_global.size()), st.my_world());
}

void Comm::fault_point(KillPoint point) const {
  detail::CommState& st = state();
  if (FaultInjector* f = st.job->faults()) f->on_point(point, st.my_world());
}

void Comm::fault_checkpoint(std::uint64_t step) const {
  detail::CommState& st = state();
  if (FaultInjector* f = st.job->faults()) {
    f->on_point(KillPoint::step, st.my_world(), step);
  }
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

void Comm::send_raw(std::span<const std::byte> bytes, rank_t dest, tag_t tag,
                    TypeSig sig) const {
  detail::CommState& st = state();
  const rank_t dest_global = require_member_global(dest, "destination");
  fault_point(KillPoint::before_send);
  Envelope env;
  env.context = st.context;
  env.src = st.my_world();
  env.tag = tag;
  env.sig = sig;
  env.payload = bytes;  // borrowed until deliver() returns
  st.job->count_message(bytes.size());
  st.job->mailbox(dest_global).deliver(std::move(env));
  fault_point(KillPoint::after_send);
}

Status Comm::recv_raw(std::span<std::byte> buffer, rank_t source, tag_t tag,
                      TypeSig expected) const {
  detail::CommState& st = state();
  const rank_t src_global = source_global(source);
  fault_point(KillPoint::before_recv);
  const Status status = st.mailbox().recv(st.context, src_global, tag, buffer,
                                          st.job->deadline(), expected);
  fault_point(KillPoint::after_recv);
  return st.localized(status);
}

std::pair<Status, std::vector<std::byte>> Comm::recv_take_raw(
    rank_t source, tag_t tag, TypeSig expected) const {
  detail::CommState& st = state();
  const rank_t src_global = source_global(source);
  fault_point(KillPoint::before_recv);
  auto [status, payload] = st.mailbox().recv_take(
      st.context, src_global, tag, st.job->deadline(), expected);
  fault_point(KillPoint::after_recv);
  return {st.localized(status), std::move(payload)};
}

Request Comm::isend_raw(std::span<const std::byte> bytes, rank_t dest,
                        tag_t tag, TypeSig sig) const {
  // Eager protocol: the payload is copied at initiation (into a waiting
  // receive or the queue), so the send is already complete from the
  // sender's perspective (cf. MPI_Ibsend).
  send_raw(bytes, dest, tag, sig);
  Request r;
  r.immediate_done_ = true;
  r.immediate_ = Status{dest, tag, bytes.size()};
  return r;
}

Request Comm::irecv_raw(std::span<std::byte> buffer, rank_t source, tag_t tag,
                        TypeSig expected) const {
  detail::CommState& st = state();
  const rank_t src_global = source_global(source);
  fault_point(KillPoint::before_recv);
  Request r;
  r.state_ = s_;
  r.ticket_ =
      st.mailbox().post_recv(st.context, src_global, tag, buffer, expected);
  return r;
}

Status Comm::sendrecv_raw(std::span<const std::byte> send_bytes, rank_t dest,
                          tag_t send_tag, std::span<std::byte> recv_buffer,
                          rank_t source, tag_t recv_tag, TypeSig send_sig,
                          TypeSig recv_expected) const {
  Request rx = irecv_raw(recv_buffer, source, recv_tag, recv_expected);
  send_raw(send_bytes, dest, send_tag, send_sig);
  return rx.wait();
}

Status Comm::probe(rank_t source, tag_t tag) const {
  detail::CommState& st = state();
  return st.localized(st.mailbox().probe(st.context, source_global(source),
                                         tag, st.job->deadline()));
}

std::optional<Status> Comm::iprobe(rank_t source, tag_t tag) const {
  detail::CommState& st = state();
  const std::optional<Status> status =
      st.mailbox().iprobe(st.context, source_global(source), tag);
  if (!status.has_value()) return std::nullopt;
  return st.localized(*status);
}

// ---------------------------------------------------------------------------
// Communicator creation
// ---------------------------------------------------------------------------

Comm Comm::split(int color, int key) const {
  // One allgather of every member's (color, key); each member then knows
  // its own group: the members of its colour, ordered by (key, parent
  // rank), which stable_sort over parent order gives.
  const std::array<int, 2> mine{color, key};
  const std::vector<int> all = allgather(*this, std::span<const int>(mine));
  std::vector<rank_t> members;
  if (color != undefined) {
    for (rank_t r = 0; r < size(); ++r) {
      if (all[2 * static_cast<std::size_t>(r)] == color) members.push_back(r);
    }
    std::stable_sort(members.begin(), members.end(),
                     [&all](rank_t a, rank_t b) {
                       return all[2 * static_cast<std::size_t>(a) + 1] <
                              all[2 * static_cast<std::size_t>(b) + 1];
                     });
  }
  return split_known(members);
}

Comm Comm::split_known(std::span<const rank_t> members) const {
  return split_known_as("split", Checker::kUncheckedCount, members);
}

Comm Comm::split_known_as(const char* op_name, std::uint64_t count,
                          std::span<const rank_t> members) const {
  check_collective(op_name, -1, count, 0);
  const ScopedCheckOp op(op_name);
  const TraceSpan span(state().job->tracer(), state().my_world(),
                       TraceOp::collective, "split");
  fault_point(KillPoint::before_split);
  std::vector<rank_t> group;
  group.reserve(members.size());
  for (const rank_t r : members) {
    group.push_back(require_member_global(r, "split_known member"));
  }
  Comm result = known_group(std::move(group));
  fault_point(KillPoint::after_split);
  return result;
}

Comm Comm::known_group(std::vector<rank_t> group) const {
  detail::CommState& st = state();
  // The parent's slot key, read before next_collective_tag() advances it.
  const std::uint32_t seq = st.collective_seq;
  (void)next_collective_tag();
  const context_t ctx =
      st.job->agree_context(st.context, st.to_global.front(), seq,
                            static_cast<int>(st.to_global.size()));
  if (group.empty()) return Comm{};
  return from_group(st.job, ctx, std::move(group), st.my_world());
}

Comm Comm::dup() const {
  check_collective("dup", -1, 0, 0);
  const ScopedCheckOp op("dup");
  detail::CommState& st = state();
  const TraceSpan span(st.job->tracer(), st.my_world(), TraceOp::collective,
                       "dup");
  return known_group(st.to_global);
}

Comm Comm::create(std::span<const rank_t> local_ranks) const {
  detail::CommState& st = state();
  const int n = static_cast<int>(st.to_global.size());
  bool member = false;
  for (const rank_t r : local_ranks) {
    if (r < 0 || r >= n) {
      throw Error(Errc::invalid_rank,
                  "create(): rank " + std::to_string(r) +
                      " outside communicator of size " + std::to_string(n));
    }
    member = member || r == st.my_rank;
  }
  // Each member builds its handle from its own list, so mpicheck compares
  // a fingerprint of the list (FNV-1a; the top bit is cleared so it never
  // reads as the unchecked count): lists that differ across members are a
  // CollectiveMismatchError, not silently disagreeing communicators.
  std::uint64_t fingerprint = 14695981039346656037ULL;
  const auto mix = [&fingerprint](std::uint64_t v) {
    fingerprint = (fingerprint ^ v) * 1099511628211ULL;
  };
  mix(local_ranks.size());
  for (const rank_t r : local_ranks) mix(static_cast<std::uint32_t>(r));
  return split_known_as("create", fingerprint >> 1,
                        member ? local_ranks : std::span<const rank_t>{});
}

Comm Comm::create_ordered_world(std::span<const rank_t> world_ranks) const {
  detail::CommState& st = state();
  if (st.context != kWorldContext) {
    throw Error(Errc::invalid_comm,
                "create_ordered_world requires a COMM_WORLD handle");
  }
  if (world_ranks.empty()) {
    throw Error(Errc::invalid_argument, "create_ordered_world: empty group");
  }
  const rank_t my_world = st.my_world();
  const rank_t leader = world_ranks.front();
  const tag_t ctx_tag = kControlTagBase + 1;

  context_t ctx = 0;
  if (my_world == leader) {
    ctx = st.job->allocate_context(my_world);
    for (rank_t member : world_ranks.subspan(1)) {
      st.job->control_send(
          my_world, member, ctx_tag,
          std::as_bytes(std::span<const context_t>(&ctx, 1)));
    }
  } else {
    st.mailbox().recv(kWorldContext, leader, ctx_tag,
                      std::as_writable_bytes(std::span<context_t>(&ctx, 1)),
                      st.job->deadline());
  }
  return from_group(st.job, ctx,
                    std::vector<rank_t>(world_ranks.begin(), world_ranks.end()),
                    my_world);
}

}  // namespace minimpi
