// check.hpp — mpicheck: the opt-in correctness-verification layer of
// minimpi (in the spirit of MPI tools such as MUST).
//
// Four checkers, enabled per-job through JobOptions::check or the
// MINIMPI_CHECK environment variable ("all" or a comma list of
// deadlock,types,collectives,leaks):
//
//   * wait-for-graph deadlock detection — every blocked receive/probe/
//     request-wait registers a dependency edge (waiter -> awaited rank) in
//     a central graph; a watcher thread runs cycle detection and converts
//     a send/recv cycle into ONE structured report naming every
//     (component, rank, operation) edge — instead of N independent
//     timeouts.  The blocking-receive timeout path consults the same graph
//     and upgrades its timeout to a DeadlockError when a cycle exists.
//   * type/count matching — typed point-to-point calls stamp envelopes
//     with a TypeSig (element type name + size); on match the sender's
//     signature is verified against the posted receive and a mismatch
//     raises TypeMismatchError naming both sides.
//   * collective consistency — each collective invocation reports
//     (communicator, sequence number, operation, root, count, element
//     size) to a central table; members disagreeing with the first
//     reporter raise CollectiveMismatchError (catches split-brain
//     collectives across MPH components).
//   * resource-leak audit — live communicator states, posted receives the
//     user never consumed, and never-received envelopes are tracked per
//     rank; the totals surface in JobReport::check and Mph::finalize().
//
// Soundness of the deadlock detector: each rank is one thread, so a rank
// has at most one blocked mailbox wait at a time (one graph slot per world
// rank).  A delivery epoch per rank is advanced under the destination
// mailbox's mutex on every deliver(); a blocked waiter records the epoch it
// has processed, in the same critical section as its failed match check.
// An edge A->B with seen_epoch == epoch[A] therefore means A has examined
// every envelope delivered so far and still matched nothing — and B, being
// registered as blocked, cannot be concurrently sending.  A cycle of such
// definite-source edges can never make progress, so reporting it is
// race-free: fault-injection delays/kills never show up as deadlocks
// (delayed senders hold no edge; killed ranks abort the job, which parks
// the watcher).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "src/minimpi/error.hpp"
#include "src/minimpi/hooks.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

class Job;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Which checkers run for a job.  Merged with the MINIMPI_CHECK environment
/// variable at Job construction (the union of both enables).
struct CheckOptions {
  bool deadlock = false;      ///< wait-for-graph cycle detection
  bool type_matching = false; ///< sender/receiver datatype verification
  bool collectives = false;   ///< per-communicator collective consistency
  bool leaks = false;         ///< communicator/request/envelope audit

  /// Watcher-thread scan period for the deadlock detector.  Zero disables
  /// the watcher: cycles are then only detected synchronously when a
  /// blocked receive times out (the timeout-upgrade path).
  std::chrono::milliseconds watch_interval{25};

  [[nodiscard]] bool any() const noexcept {
    return deadlock || type_matching || collectives || leaks;
  }

  /// Every checker on.
  [[nodiscard]] static CheckOptions all() noexcept;

  /// Apply a MINIMPI_CHECK-style value on top of these options: "all"/"1",
  /// or a comma/space list of deadlock, types, collectives, leaks.  Tokens
  /// only switch checkers on; unknown tokens are ignored.
  void apply(std::string_view text) noexcept;

  /// apply(text) on default options.
  [[nodiscard]] static CheckOptions parse(std::string_view text) noexcept;

  /// MINIMPI_CHECK applied on top of these options.
  [[nodiscard]] CheckOptions merged_with_env() const noexcept;
};

// ---------------------------------------------------------------------------
// Type signatures
// ---------------------------------------------------------------------------

namespace detail {
template <class T>
constexpr std::string_view raw_type_name() noexcept {
#if defined(__clang__) || defined(__GNUC__)
  return __PRETTY_FUNCTION__;
#else
  return "T = ?";
#endif
}
}  // namespace detail

/// Human-readable name of T, extracted from the compiler's pretty function
/// signature.  Views static storage — safe to keep indefinitely.
template <class T>
constexpr std::string_view type_name() noexcept {
  constexpr std::string_view raw = detail::raw_type_name<T>();
  constexpr std::string_view key = "T = ";
  const std::size_t start = raw.find(key);
  if (start == std::string_view::npos) return "?";
  const std::string_view rest = raw.substr(start + key.size());
  const std::size_t end = rest.find_first_of(";]");
  return end == std::string_view::npos ? rest : rest.substr(0, end);
}

/// Element-type signature a typed send stamps onto its envelope and a typed
/// receive declares as expectation.  Raw (untyped) traffic carries an empty
/// signature and is never checked.
struct TypeSig {
  std::string_view name{};   ///< element type name ("" = untyped)
  std::uint32_t size = 0;    ///< sizeof(element); 0 = untyped

  [[nodiscard]] bool present() const noexcept { return size != 0; }
  [[nodiscard]] bool matches(const TypeSig& other) const noexcept {
    return name == other.name && size == other.size;
  }
};

/// Signature of a Transferable element type.
template <Transferable T>
[[nodiscard]] constexpr TypeSig type_sig() noexcept {
  return TypeSig{type_name<T>(), static_cast<std::uint32_t>(sizeof(T))};
}

// ---------------------------------------------------------------------------
// Structured check failures
// ---------------------------------------------------------------------------

/// A wait-for cycle was found (watcher thread report, or a blocked receive
/// whose timeout was upgraded).  The message lists every edge of the cycle
/// as "component[world_rank] op<-component[world_rank] (context, tag)".
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& cycle)
      : Error(Errc::deadlock, cycle) {}
};

/// A typed receive matched an envelope whose element type disagrees.
class TypeMismatchError : public Error {
 public:
  explicit TypeMismatchError(const std::string& what)
      : Error(Errc::type_mismatch, what) {}
};

/// Members of one communicator invoked inconsistent collectives.
class CollectiveMismatchError : public Error {
 public:
  explicit CollectiveMismatchError(const std::string& what)
      : Error(Errc::collective_mismatch, what) {}
};

/// A rank finished with communication debt while the leak audit was on
/// (thrown by Mph::finalize).
class LeakError : public Error {
 public:
  explicit LeakError(const std::string& what) : Error(Errc::leak, what) {}
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Everything the enabled checkers found over one job's lifetime.  Surfaced
/// as JobReport::check and printed by Mph::finalize() on the diagnostics
/// channel.
struct CheckReport {
  struct RankLeak {
    rank_t world_rank = -1;
    std::string component;
    std::size_t envelopes = 0;        ///< delivered to the rank, never received
    std::size_t posted_recvs = 0;     ///< posted receives that never matched
    std::size_t outstanding_requests = 0;  ///< requests never waited/cancelled
    std::size_t live_comms = 0;       ///< communicator states never released

    [[nodiscard]] bool clean() const noexcept {
      return envelopes == 0 && posted_recvs == 0 &&
             outstanding_requests == 0 && live_comms == 0;
    }
    [[nodiscard]] std::string to_string() const;
  };

  std::vector<std::string> deadlocks;
  std::vector<std::string> type_mismatches;
  std::vector<std::string> collective_mismatches;
  std::vector<RankLeak> leaks;  ///< only ranks with debt appear

  [[nodiscard]] bool clean() const noexcept {
    return deadlocks.empty() && type_mismatches.empty() &&
           collective_mismatches.empty() && leaks.empty();
  }

  /// Multi-line human-readable summary ("check: clean" when nothing fired).
  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Scoped operation label (collectives name their blocked waits)
// ---------------------------------------------------------------------------

/// While alive, blocked waits registered by this thread carry `op` as their
/// operation label ("barrier", "bcast", ...) instead of the generic
/// "recv"/"wait".  Nesting restores the previous label.
class ScopedCheckOp {
 public:
  explicit ScopedCheckOp(const char* op) noexcept : previous_(current()) {
    current() = op;
  }
  ScopedCheckOp(const ScopedCheckOp&) = delete;
  ScopedCheckOp& operator=(const ScopedCheckOp&) = delete;
  ~ScopedCheckOp() { current() = previous_; }

  [[nodiscard]] static const char*& current() noexcept {
    static thread_local const char* label = nullptr;
    return label;
  }

 private:
  const char* previous_;
};

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// Central registry of the four checkers for one Job.  Thread safe; every
/// hook is a cheap no-op for checkers that are off.  The mailbox reaches it
/// through the observer seam (hooks.hpp).
class Checker final : public Observer {
 public:
  /// Sentinel count for collectives with legitimately rank-varying counts
  /// (gatherv, split, ...): excluded from the count comparison.
  static constexpr std::uint64_t kUncheckedCount = ~std::uint64_t{0};

  Checker(CheckOptions options, int world_size);
  ~Checker();

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Attach the owning job (labels + abort) and start the watcher thread
  /// when deadlock checking is on and watch_interval is nonzero.  Called
  /// once by the Job constructor after the mailboxes exist.
  void bind(Job* job);

  /// Stop and join the watcher.  Idempotent; called by ~Job before the
  /// mailboxes are destroyed.
  void stop();

  [[nodiscard]] const CheckOptions& options() const noexcept {
    return options_;
  }

  // --- Observer events (all under the owner's mailbox mutex) --------------

  /// Advances `owner`'s delivery epoch and clears any soft edge the sender
  /// holds (it is visibly making progress).
  void envelope_delivered(rank_t owner, const Envelope& env) override;
  /// Type matching: returns (and records) the TypeMismatchError, or null
  /// when compatible or either side is untyped.
  std::exception_ptr envelope_matched(rank_t owner, const Envelope& env,
                                      const TypeSig& expected,
                                      std::size_t capacity,
                                      bool posted) override;
  /// The wait-for edge owner -> wait.waits_on (possibly any_source),
  /// (re)registered at the current epoch, and removed.
  void wait_blocked(rank_t owner, const BlockedWait& wait) override;
  void wait_unblocked(rank_t owner, const BlockedWait& wait,
                      std::uint64_t t1_ns) override;
  /// Timeout upgrade: throws DeadlockError when the owner sits on a
  /// confirmed wait-for cycle.
  void wait_timed_out(rank_t owner) override;
  /// A nonblocking miss (iprobe, test) is a *soft* wait-for edge.  It joins
  /// cycle detection only once the owner has missed the same pattern twice
  /// in a row (spinning, not glancing) and recently; any send the owner
  /// issues, a hit, or ordinary blocking invalidates it.  This is how
  /// probe/test spin loops get reported as deadlock cycles.
  void poll_missed(rank_t owner, rank_t source, const char* op, context_t ctx,
                   tag_t tag) override;
  void poll_hit(rank_t owner) override;
  /// Leak audit: a posted receive's request is outstanding until consumed.
  void recv_posted(rank_t owner, rank_t source, context_t ctx, tag_t tag,
                   std::size_t capacity) override;
  void request_consumed(rank_t owner) override;

  // --- collective consistency ----------------------------------------------

  /// Verify one member's collective invocation against the first reporter
  /// of the same (communicator, sequence) slot.  Throws
  /// CollectiveMismatchError on disagreement.
  void on_collective(context_t ctx, rank_t group_leader, std::uint32_t seq,
                     const char* op, rank_t root, std::uint64_t count,
                     std::uint32_t elem_size, int comm_size, rank_t reporter);

  // --- resource-leak audit --------------------------------------------------

  void note_comm_created(rank_t world_rank) noexcept;
  void note_comm_destroyed(rank_t world_rank) noexcept;

  /// Fold one mailbox drain into the per-rank leak accounting (called by
  /// Job::drain_all and Mph::finalize; accumulating, so draining twice
  /// cannot double-count what the first drain already cleared).
  void record_drain(rank_t world_rank, std::size_t envelopes,
                    std::size_t posted_recvs);

  /// Leak totals of one rank right now (finalize's per-rank view).
  [[nodiscard]] CheckReport::RankLeak rank_leak(rank_t world_rank) const;

  /// Snapshot of everything found so far.
  [[nodiscard]] CheckReport report() const;

 private:
  /// One rank's blocked wait (≤ 1 per rank: a rank is a single thread).
  struct BlockedEdge {
    bool active = false;
    rank_t waits_on = any_source;
    const char* op = "recv";
    context_t context = kWorldContext;
    tag_t tag = any_tag;
    std::uint64_t seen_epoch = 0;
    /// Soft edges come from nonblocking misses (iprobe/test spin loops);
    /// they join cycles only with spins >= 2, a current epoch, and a recent
    /// last_spin — a rank that merely glanced once, or went off to compute,
    /// must not be reported as deadlocked.
    bool soft = false;
    std::uint64_t spins = 0;
    std::chrono::steady_clock::time_point last_spin{};
  };

  /// Descriptor of the first report of one collective slot.
  struct CollectiveRecord {
    const char* op = "";
    rank_t root = -1;
    std::uint64_t count = 0;
    std::uint32_t elem_size = 0;
    int comm_size = 0;
    rank_t first_reporter = -1;
    int arrived = 0;
  };

  [[nodiscard]] std::string label_of(rank_t world_rank) const;
  [[nodiscard]] std::string describe_edge(rank_t waiter,
                                          const BlockedEdge& edge) const;

  /// Walk the definite-source wait-for chain from `start`; returns the
  /// member ranks of a confirmed cycle (epoch-verified) or empty.
  /// Requires graph_mutex_.
  [[nodiscard]] std::vector<rank_t> find_cycle_locked(rank_t start) const;

  /// Format a cycle (outside graph_mutex_: takes label locks).
  [[nodiscard]] std::string format_cycle(
      const std::vector<rank_t>& cycle,
      const std::vector<BlockedEdge>& edges) const;

  void watch_loop();

  CheckOptions options_;
  int world_size_;
  Job* job_ = nullptr;

  // Wait-for graph.
  mutable std::mutex graph_mutex_;
  std::vector<BlockedEdge> edges_;  ///< slot per world rank
  std::unique_ptr<mph::atomic<std::uint64_t>[]> epochs_;

  // Watcher.
  std::thread watcher_;
  std::mutex watcher_mutex_;
  std::condition_variable watcher_cv_;
  bool stopping_ = false;

  // Collective table.
  std::mutex coll_mutex_;
  std::map<std::tuple<context_t, rank_t, std::uint32_t>, CollectiveRecord>
      collectives_;

  // Leak counters (per world rank).
  std::unique_ptr<mph::atomic<std::int64_t>[]> live_comms_;
  std::unique_ptr<mph::atomic<std::int64_t>[]> outstanding_requests_;
  std::unique_ptr<mph::atomic<std::uint64_t>[]> leaked_envelopes_;
  std::unique_ptr<mph::atomic<std::uint64_t>[]> leaked_posted_;

  // Findings.
  mutable std::mutex report_mutex_;
  std::vector<std::string> deadlocks_;
  std::vector<std::string> type_mismatches_;
  std::vector<std::string> collective_mismatches_;
};

}  // namespace minimpi
