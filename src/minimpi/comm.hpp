// comm.hpp — communicators, typed point-to-point, and nonblocking requests.
//
// A Comm is a per-rank handle onto a communication context: (job, context
// id, my local rank, local↔global rank maps).  Handles are cheap to copy
// (shared state).  Contexts isolate traffic exactly like MPI communicator
// contexts: a message sent on one communicator can only be matched by a
// receive on a communicator with the same context id.
//
// Creation calls (split/split_known/dup/create) are collective over the
// parent and share one construction: each member builds its handle from
// its own new group and only the context id is agreed, through the job
// (Job::agree_context) without a message, in the style of MPI-4's
// MPI_Comm_create_from_group.  split_known, dup and create send nothing,
// because every member already holds its group; split first allgathers
// every member's (color, key) so that it can compute its group.
// create_ordered_world, which only the listed ranks call, is the one
// exception: its leader allocates the id and sends it to the others.
#pragma once

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/job.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

class Comm;

namespace detail {
/// Shared, immutable-after-construction communicator state (one instance
/// per rank per communicator; the collective sequence number is the only
/// mutable member and is only touched by the owning rank's thread).
struct CommState {
  std::shared_ptr<Job> job;
  context_t context = kWorldContext;
  rank_t my_rank = 0;                 ///< local rank in this communicator
  std::vector<rank_t> to_global;      ///< local rank -> world rank
  std::vector<rank_t> to_local;       ///< world rank -> local rank, -1 absent
  std::uint32_t collective_seq = 0;   ///< advanced once per collective call

  CommState() = default;
  CommState(const CommState&) = delete;
  CommState& operator=(const CommState&) = delete;
  /// Releases the communicator in the leak audit (world handles are
  /// substrate-owned and not audited).
  ~CommState();

  /// This rank's world rank, and its mailbox.
  [[nodiscard]] rank_t my_world() const {
    return to_global[static_cast<std::size_t>(my_rank)];
  }
  [[nodiscard]] Mailbox& mailbox() const { return job->mailbox(my_world()); }

  /// `status` with its (world) source translated to this communicator.
  [[nodiscard]] Status localized(Status status) const {
    if (status.source >= 0 &&
        status.source < static_cast<rank_t>(to_local.size())) {
      status.source = to_local[static_cast<std::size_t>(status.source)];
    }
    return status;
  }
};
}  // namespace detail

/// Handle to an outstanding nonblocking operation.  Eagerly-buffered sends
/// complete at initiation; receives complete when a matching message is
/// delivered.  Status sources are reported in the initiating communicator's
/// local ranks.
///
/// A Request is move-only: it owns its receive.  Destroying one whose
/// posted receive was never waited, tested complete or cancelled (dropped,
/// or left behind by a rank unwinding between irecv and wait) detaches the
/// buffer: the receive still matches the next envelope in MPI order, whose
/// payload is discarded, so a buffer freed by the unwind is never written.
/// The leak audit still reports the receive and its request.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request() { release(); }

  [[nodiscard]] bool valid() const noexcept {
    return immediate_done_ || ticket_ != nullptr;
  }

  /// Block until complete; returns the receive status (sends report their
  /// own destination/tag).  A Request may be waited at most once.
  Status wait();

  /// Nonblocking completion check; fills `out` when complete.
  bool test(Status* out = nullptr);

  /// Wait for every request; statuses returned in argument order.
  static std::vector<Status> wait_all(std::span<Request> requests);

  /// Block until at least one request completes; returns its index (the
  /// lowest-indexed completed one) and fills `out`.  Mirrors MPI_Waitany.
  /// Throws when every request is invalid/consumed.
  static std::size_t wait_any(std::span<Request> requests,
                              Status* out = nullptr);

  /// True when every request is complete (consuming none).
  static bool test_all(std::span<Request> requests);

 private:
  friend class Comm;

  /// Detach an unconsumed posted receive (see the class comment).
  void release() noexcept;

  std::shared_ptr<detail::CommState> state_;  ///< for deadline + translation
  std::shared_ptr<RecvTicket> ticket_;        ///< null for immediate ops
  Status immediate_{};
  bool immediate_done_ = false;
};

class Comm {
 public:
  /// Null communicator (mirrors MPI_COMM_NULL); most operations throw.
  Comm() = default;

  /// COMM_WORLD handle for `my_world_rank` of `job` (called by the
  /// launcher once per rank-thread).
  static Comm world(std::shared_ptr<Job> job, rank_t my_world_rank);

  [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }
  [[nodiscard]] rank_t rank() const;
  [[nodiscard]] int size() const;
  [[nodiscard]] context_t context() const;
  [[nodiscard]] Job& job() const;
  [[nodiscard]] std::shared_ptr<Job> job_ptr() const;

  /// World rank of a local rank.
  [[nodiscard]] rank_t global_of(rank_t local) const;
  /// Local rank of a world rank, or -1 when not a member.
  [[nodiscard]] rank_t local_of(rank_t world_rank) const noexcept;
  /// Full local→world map (the communicator's group).
  [[nodiscard]] const std::vector<rank_t>& group() const;

  // --- typed blocking point-to-point -------------------------------------

  template <Transferable T>
  void send(const T& value, rank_t dest, tag_t tag) const {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  template <Transferable T>
  void send(std::span<const T> values, rank_t dest, tag_t tag) const {
    check_user_tag(tag);
    send_raw(std::as_bytes(values), dest, tag, type_sig<T>());
  }

  template <Transferable T>
  Status recv(T& value, rank_t source, tag_t tag) const {
    return recv(std::span<T>(&value, 1), source, tag);
  }

  template <Transferable T>
  Status recv(std::span<T> values, rank_t source, tag_t tag) const {
    check_user_tag_or_any(tag);
    return recv_raw(std::as_writable_bytes(values), source, tag,
                    type_sig<T>());
  }

  /// Receive a message of unknown length; element count comes from the
  /// returned status.
  template <Transferable T>
  std::vector<T> recv_vector(rank_t source, tag_t tag,
                             Status* out = nullptr) const {
    check_user_tag_or_any(tag);
    auto [status, bytes] = recv_take_raw(source, tag, type_sig<T>());
    if (bytes.size() % sizeof(T) != 0) {
      throw Error(Errc::truncation,
                  "message of " + std::to_string(bytes.size()) +
                      " bytes is not a whole number of elements of size " +
                      std::to_string(sizeof(T)));
    }
    std::vector<T> values(bytes.size() / sizeof(T));
    if (!values.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    if (out != nullptr) *out = status;
    return values;
  }

  /// Combined send+receive that cannot deadlock (receive is posted first).
  template <Transferable T>
  Status sendrecv(std::span<const T> send_values, rank_t dest, tag_t send_tag,
                  std::span<T> recv_values, rank_t source,
                  tag_t recv_tag) const {
    check_user_tag(send_tag);
    check_user_tag_or_any(recv_tag);
    return sendrecv_raw(std::as_bytes(send_values), dest, send_tag,
                        std::as_writable_bytes(recv_values), source, recv_tag,
                        type_sig<T>(), type_sig<T>());
  }

  /// In-place exchange (mirrors MPI_Sendrecv_replace): the buffer is sent
  /// to `dest` and overwritten with the message from `source`.
  template <Transferable T>
  Status sendrecv_replace(std::span<T> values, rank_t dest, tag_t send_tag,
                          rank_t source, tag_t recv_tag) const {
    // The eager send copies the payload out at initiation, so sending
    // first and receiving into the same storage is safe.
    check_user_tag(send_tag);
    check_user_tag_or_any(recv_tag);
    send_raw(std::as_bytes(values), dest, send_tag, type_sig<T>());
    return recv_raw(std::as_writable_bytes(values), source, recv_tag,
                    type_sig<T>());
  }

  // --- nonblocking --------------------------------------------------------

  template <Transferable T>
  Request isend(std::span<const T> values, rank_t dest, tag_t tag) const {
    check_user_tag(tag);
    return isend_raw(std::as_bytes(values), dest, tag, type_sig<T>());
  }

  template <Transferable T>
  Request irecv(std::span<T> values, rank_t source, tag_t tag) const {
    check_user_tag_or_any(tag);
    return irecv_raw(std::as_writable_bytes(values), source, tag,
                     type_sig<T>());
  }

  // --- probing -------------------------------------------------------------

  /// Block until a matching message is available (without receiving it).
  [[nodiscard]] Status probe(rank_t source, tag_t tag) const;
  /// Nonblocking probe.
  [[nodiscard]] std::optional<Status> iprobe(rank_t source, tag_t tag) const;

  // --- communicator creation (collective) ----------------------------------

  /// MPI_Comm_split: ranks with equal `color` form a new communicator,
  /// ordered by (key, parent rank).  `color == undefined` yields a null
  /// communicator for that rank.  Collective over this communicator: one
  /// allgather of (color, key), then a split_known of the group it gives.
  [[nodiscard]] Comm split(int color, int key) const;

  /// split for callers that already know their new group: each member
  /// passes its own group's members as local ranks of this communicator,
  /// in new-rank order, or an empty list for a null communicator.  Members
  /// of one new group pass identical lists, and groups of one call are
  /// disjoint, as the groups of a split are.  Collective over this
  /// communicator and checked, traced and fault-injected as split, but
  /// sends no message: a member may use its handle at once, and traffic
  /// for a peer that has not built its own yet waits in the peer's mailbox.
  [[nodiscard]] Comm split_known(std::span<const rank_t> members) const;

  /// MPI_Comm_dup: same group, fresh context.  Collective; no message.
  [[nodiscard]] Comm dup() const;

  /// MPI_Comm_create over an explicit local-rank list (order defines the
  /// new ranks), passed identically by every member.  Collective over this
  /// communicator; non-members receive a null communicator.  A split_known
  /// whose group is the list: no message.  mpicheck compares a fingerprint
  /// of the list, so members passing different lists are reported.
  [[nodiscard]] Comm create(std::span<const rank_t> local_ranks) const;

  /// Build a communicator over an explicit, ordered list of *world* ranks
  /// without a parent-wide collective: only the listed ranks participate
  /// (each passing an identical list).  This is how MPH_comm_join merges
  /// two components without involving the rest of the job.  `this` must be
  /// a world handle of the member rank.
  [[nodiscard]] Comm create_ordered_world(
      std::span<const rank_t> world_ranks) const;

  // --- raw byte interface (full tag range; collectives/control use this) ---
  // The optional TypeSig parameters carry the element type of the typed
  // wrappers down to the mailbox for mpicheck's type matching; raw callers
  // leave them empty and stay unchecked.

  void send_raw(std::span<const std::byte> bytes, rank_t dest, tag_t tag,
                TypeSig sig = {}) const;
  Status recv_raw(std::span<std::byte> buffer, rank_t source, tag_t tag,
                  TypeSig expected = {}) const;
  std::pair<Status, std::vector<std::byte>> recv_take_raw(
      rank_t source, tag_t tag, TypeSig expected = {}) const;
  Request isend_raw(std::span<const std::byte> bytes, rank_t dest, tag_t tag,
                    TypeSig sig = {}) const;
  Request irecv_raw(std::span<std::byte> buffer, rank_t source, tag_t tag,
                    TypeSig expected = {}) const;
  Status sendrecv_raw(std::span<const std::byte> send_bytes, rank_t dest,
                      tag_t send_tag, std::span<std::byte> recv_buffer,
                      rank_t source, tag_t recv_tag, TypeSig send_sig = {},
                      TypeSig recv_expected = {}) const;

  /// Fresh tag for one collective invocation; every member calls this the
  /// same number of times in the same order, so tags agree job-wide.
  [[nodiscard]] tag_t next_collective_tag() const;

  /// mpicheck hook: report this rank's next collective invocation
  /// (`op`, root as a *local* rank or -1 for rootless, element `count`
  /// or Checker::kUncheckedCount for rank-varying counts, element size)
  /// against the communicator's collective-consistency slot.  Must run
  /// *before* the matching next_collective_tag() call so the sequence
  /// numbers line up.  Throws CollectiveMismatchError on divergence;
  /// no-op when no checker is active.
  void check_collective(const char* op, rank_t root, std::uint64_t count,
                        std::uint32_t elem_size) const;

  // --- fault injection hooks ----------------------------------------------

  /// Fire the job's fault injector (if any) at `point` for this rank's
  /// world rank.  No-op without a configured FaultPlan; throws
  /// FaultInjectedError when a kill rule fires.  Collective algorithms and
  /// the point-to-point paths call this at their kill-points.
  void fault_point(KillPoint point) const;

  /// Application-defined checkpoint for KillPoint::step rules: "kill rank R
  /// at step N".  Drivers call this once per step/interval.
  void fault_checkpoint(std::uint64_t step) const;

  /// Equality = same underlying state object (same rank's same handle).
  [[nodiscard]] bool same_state(const Comm& other) const noexcept {
    return s_ == other.s_;
  }

 private:
  explicit Comm(std::shared_ptr<detail::CommState> state)
      : s_(std::move(state)) {}

  [[nodiscard]] detail::CommState& state() const;
  /// split_known, checked by mpicheck as collective `op_name` with `count`.
  [[nodiscard]] Comm split_known_as(const char* op_name, std::uint64_t count,
                                    std::span<const rank_t> members) const;
  /// Advance the collective sequence, agree the context, and build the
  /// handle for `group` (world ranks; empty = null communicator).
  [[nodiscard]] Comm known_group(std::vector<rank_t> group) const;
  [[nodiscard]] rank_t require_member_global(rank_t local,
                                             const char* what) const;
  /// World rank of a receive's `source` (any_source passes through).
  [[nodiscard]] rank_t source_global(rank_t source) const;
  static void check_user_tag(tag_t tag);
  static void check_user_tag_or_any(tag_t tag);

  /// Build the state for a child communicator given its ordered world-rank
  /// group and agreed context.
  [[nodiscard]] static Comm from_group(std::shared_ptr<Job> job,
                                       context_t context,
                                       std::vector<rank_t> to_global,
                                       rank_t my_world_rank);

  std::shared_ptr<detail::CommState> s_;
};

}  // namespace minimpi
