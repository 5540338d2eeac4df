// job.hpp — shared state of one minimpi job.
//
// A Job is the in-process analogue of one MPMD batch job: `world_size`
// ranks (threads) sharing one COMM_WORLD.  The Job owns every rank's
// mailbox, hands out fresh communicator context ids, and implements the
// failure protocols:
//
//   * job-wide abort — when any rank fails, all blocked ranks are woken and
//     unwind with AbortedError instead of deadlocking (the behaviour of
//     `mpirun` killing a job when one process dies);
//   * failure domains — an optional containment layer: ranks registered
//     into a domain (e.g. one ensemble member under MPH's MIME isolation)
//     abort *together* when one of them fails, while ranks outside the
//     domain keep running;
//   * structured abort — the reason carries the failing world rank, its
//     component label, and the operation that failed, not just free text.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/minimpi/check.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/mailbox.hpp"
#include "src/minimpi/metrics.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/minimpi/trace.hpp"
#include "src/minimpi/types.hpp"
#include "src/minimpi/watch/watch.hpp"

namespace minimpi {

/// Respawn policy for failure-domain members (the launcher's "member
/// replacement" recovery pillar).  Off by default: when disabled the
/// launcher never checks domains at rank exit and behaves exactly as
/// before — zero cost on the no-recovery path.
struct RespawnOptions {
  bool enabled = false;
  /// Maximum replacements per failure domain over the job's lifetime.
  int max_respawns = 1;
  /// Delay before the first respawn of a domain; subsequent respawns of
  /// the same domain back off by `backoff_factor`.
  std::chrono::milliseconds backoff{10};
  double backoff_factor = 2.0;
};

struct JobOptions {
  /// Upper bound for any single blocking receive/probe/wait.  Deadlocked
  /// applications fail with Errc::timeout instead of hanging the test
  /// suite.  time_point::max() semantics (wait forever) via zero.
  std::chrono::milliseconds recv_timeout{std::chrono::seconds(120)};

  /// Deterministic fault injection plan (empty = no injection).
  FaultPlan faults;

  /// mpicheck correctness checkers (all off by default).  Unioned with the
  /// MINIMPI_CHECK environment variable at job construction.
  CheckOptions check;

  /// mph_trace event tracing (off by default).  Unioned with the
  /// MINIMPI_TRACE environment variable at job construction; when off,
  /// Job::tracer() is null and every trace point costs one null check.
  TraceOptions trace;

  /// mph_mon live telemetry (off by default).  Unioned with the
  /// MINIMPI_MONITOR environment variable at job construction; when off,
  /// Job::metrics() is null and every metric point costs one null check.
  MonitorOptions monitor;

  /// mph_watch health rules over the live snapshots (off by default).
  /// Unioned with the MINIMPI_WATCH environment variable at job
  /// construction; enabling watch also enables metrics collection.  When
  /// off, Job::watcher() is null — the watcher never touches rank hot
  /// paths either way (it runs on the monitor-thread reader side).
  watch::WatchOptions watch;

  /// Seed of the job's deterministic random stream (fault-injection delay
  /// jitter and any library randomness).  0 = draw a fresh seed from the
  /// OS — which throws while schedule verification has armed the entropy
  /// ban, forcing all randomness through a replayable seed.
  std::uint64_t seed = 0;

  /// Scheduler every communication decision point yields to (null =
  /// pass-through, zero overhead).  The verify engine installs a
  /// VerifyScheduler here; shared_ptr because the engine also keeps a
  /// handle across the job's lifetime.
  std::shared_ptr<Scheduler> scheduler;

  /// Failed-member replacement (run_mpmd supervisor).  Ignored — with a
  /// diagnostic — when a verifying scheduler is installed: respawn times
  /// are wall-clock events outside the explored schedule space.
  RespawnOptions respawn;
};

// CommStats lives in metrics.hpp: the one job-wide counter struct shared
// by Job::stats(), JobReport, TraceReport, and MetricsSnapshot.

/// Structured description of why a rank (and hence its job or failure
/// domain) aborted.
struct AbortInfo {
  rank_t world_rank = -1;     ///< rank whose failure triggered the abort
  std::string component;      ///< rank label (component/executable name)
  std::string operation;      ///< what it was doing (kill-point, errc, ...)
  std::string detail;         ///< the underlying exception text

  /// "rank 3 (Ocean2) failed in before_send: ..." — the abort reason text.
  [[nodiscard]] std::string to_string() const;
};

/// Sum of every mailbox's teardown accounting.
struct JobDrain {
  std::size_t envelopes = 0;
  std::size_t posted_recvs = 0;
};

class Job {
 public:
  explicit Job(int world_size, JobOptions options = {});
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  [[nodiscard]] int world_size() const noexcept { return world_size_; }
  [[nodiscard]] const JobOptions& options() const noexcept { return options_; }

  /// Mailbox of a world rank.
  [[nodiscard]] Mailbox& mailbox(rank_t world_rank);

  /// The job's fault injector, or null when no plan was configured.
  [[nodiscard]] FaultInjector* faults() const noexcept { return faults_.get(); }

  /// The job's mpicheck registry, or null when every checker is off.
  [[nodiscard]] Checker* checker() const noexcept { return checker_.get(); }

  /// The job's event tracer, or null when tracing is off.
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_.get(); }

  /// The job's metrics registry, or null when monitoring is off — the same
  /// discipline as tracer().
  [[nodiscard]] MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }

  /// The job's health watcher, or null when watching is off.  Evaluated
  /// by the monitor thread at every publish; steering code and tests may
  /// also feed it snapshots directly (observe() is thread safe).
  [[nodiscard]] watch::Watcher* watcher() const noexcept {
    return watcher_.get();
  }

  /// The job's scheduler, or null (pass-through).
  [[nodiscard]] Scheduler* scheduler() const noexcept {
    return options_.scheduler.get();
  }

  /// The job clock: trace timestamps, metric latencies, snapshot times and
  /// MPH phase durations are all nanoseconds since its one epoch.
  [[nodiscard]] const JobClock& clock() const noexcept { return clock_; }

  /// The resolved job seed (JobOptions::seed, or the fresh OS seed drawn
  /// when that was 0).  All job-owned randomness derives from it.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Allocate a fresh communicator context id (thread safe).  Called by
  /// agree_context, and by the leader of an ordered-world create
  /// (`allocator` is its world rank), which sends the id to the others.
  /// Under schedule verification each rank draws from its own disjoint id
  /// space, so context ids depend only on the allocating rank's program
  /// order, never on cross-rank allocation races: traces stay byte-
  /// identical across schedules and replays.
  [[nodiscard]] context_t allocate_context(rank_t allocator) noexcept;

  /// Context id of a communicator that every member builds from a group it
  /// already knows (split, split_known, dup, create), agreed without a
  /// message.  Each of the parent's `parent_size` members asks once, with
  /// the key of the parent's mpicheck slot: its context, its group leader
  /// (the world rank of its local rank 0) and its collective sequence
  /// number.  The first asker allocates one fresh id, which the disjoint
  /// children of one split share; the entry is dropped when the last
  /// member has asked.  Under schedule verification the id is a
  /// pure function of the key, so it cannot depend on which member asks
  /// first.  Those ids have bit 31 set, clear of the per-rank spaces above
  /// (jobs under 2047 ranks); two keys hashing to one id throw
  /// Errc::internal.
  [[nodiscard]] context_t agree_context(context_t parent, rank_t leader,
                                        std::uint32_t seq, int parent_size);

  // --- job-wide abort ------------------------------------------------------

  /// Abort the job: record `reason` (first caller wins) and wake every
  /// blocked rank.  Idempotent.
  void abort(const std::string& reason);

  /// Structured abort: like abort(reason) but preserving the failing rank,
  /// component label, and operation for abort_info().
  void abort(AbortInfo info);

  [[nodiscard]] bool aborted() const noexcept {
    return abort_flag_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& abort_reason() const noexcept {
    return abort_reason_;
  }

  /// Structured root cause, when the abort came through abort(AbortInfo).
  /// Safe to call from surviving ranks while the job is still running
  /// (e.g. Mph::failure_of), hence the copy under the abort lock.
  [[nodiscard]] std::optional<AbortInfo> abort_info() const {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    return abort_info_;
  }

  // --- per-rank annotations ------------------------------------------------

  /// Label a rank with its component/executable name for failure reports.
  /// Each rank writes only its own slot (launcher at start, MPH after the
  /// handshake); mutex-guarded (returning a copy) because the mpicheck
  /// watcher thread reads labels while ranks are still relabelling.
  void set_rank_label(rank_t world_rank, std::string label);
  [[nodiscard]] std::string rank_label(rank_t world_rank) const;

  /// Liveness flags consulted by MPH_ping: set when a rank's entry point
  /// throws (root cause or domain collateral).
  void mark_rank_failed(rank_t world_rank);
  [[nodiscard]] bool rank_failed(rank_t world_rank) const;
  [[nodiscard]] bool any_rank_failed(rank_t low, rank_t high) const;

  // --- failure domains (containment) ---------------------------------------

  /// Register `world_rank` into failure domain `domain_id` (any
  /// application-chosen id; MPH uses the component id of an ensemble
  /// member).  A failing domain member aborts only the domain: its ranks
  /// unwind with AbortedError, everyone else keeps running.  Each rank
  /// registers itself, before any member can fail (MPH: during the
  /// handshake).  Idempotent per rank: a respawned member re-joining its
  /// healed domain is recorded once.
  void join_domain(rank_t world_rank, int domain_id, const std::string& label);

  /// Domain of a rank, or -1 when unregistered.
  [[nodiscard]] int domain_of(rank_t world_rank) const;

  /// World ranks registered in a domain (empty for an unknown id).
  [[nodiscard]] std::vector<rank_t> domain_ranks(int domain_id) const;

  /// Label a domain was created with ("" for an unknown id).
  [[nodiscard]] std::string domain_label(int domain_id) const;

  /// Un-abort a domain so replacement ranks can run in it: clears the
  /// domain flag/reason/info, clears the member ranks' failure marks, and
  /// drains their mailboxes (traffic addressed to the dead incarnation).
  /// Call only after every member rank's thread has exited — the launcher
  /// supervisor does, between death and respawn.  No-op for an unknown or
  /// un-aborted domain.
  void heal_domain(int domain_id);

  /// Abort one domain: record the structured reason (first caller wins) and
  /// wake only that domain's blocked ranks.  Idempotent.
  void abort_domain(int domain_id, const AbortInfo& info);

  [[nodiscard]] bool domain_aborted(int domain_id) const;

  /// Structured failure of an aborted domain (empty otherwise).
  [[nodiscard]] std::optional<AbortInfo> domain_abort_info(int domain_id) const;

  // --- shared blackboard ----------------------------------------------------
  // A small job-lifetime key→value store for facts that must outlive the
  // ranks that learned them.  The MPH handshake publishes its resolved
  // layout here so a respawned member can rebuild its directory without a
  // world collective (the survivors are mid-run and cannot participate).
  // Last write wins; writers publishing the same key must agree on the
  // value.

  void put_shared(const std::string& key, std::string value);
  [[nodiscard]] std::optional<std::string> get_shared(
      const std::string& key) const;

  // --- deadlines / control -------------------------------------------------

  /// Deadline for a blocking operation starting now.
  [[nodiscard]] Deadline deadline() const {
    if (options_.recv_timeout.count() == 0) return Deadline::max();
    return std::chrono::steady_clock::now() + options_.recv_timeout;
  }

  /// Raw world-context send used by control protocols (e.g. distributing a
  /// fresh context id during MPH_comm_join) that run outside any
  /// user-visible communicator collective.
  void control_send(rank_t src_world, rank_t dest_world, tag_t control_tag,
                    std::span<const std::byte> bytes);

  /// Record one delivered message (called by every send path).
  void count_message(std::size_t payload_bytes) noexcept {
    messages_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

  /// Snapshot of the job's communication counters.
  [[nodiscard]] CommStats stats() const;

  /// Drain the trace rings into a report (empty ranks when tracing is
  /// off).  Tracks default to "label:world_rank" until someone (the MPH
  /// handshake) names them.  Normally called once, after every rank thread
  /// joined; safe — but approximate — while ranks are still recording.
  [[nodiscard]] TraceReport trace_report() const;

  /// Aggregate the metrics registry into one snapshot (empty ranks when
  /// monitoring is off): registry slots plus the liveness flags and
  /// component labels only the Job knows.  The monitor thread calls this
  /// every interval; run_mpmd calls it once more, after every rank thread
  /// joined, for the exact JobReport::metrics.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

  /// Park the monitor thread (idempotent).  Called by run_mpmd before the
  /// final snapshot so the published files end on a quiescent state, and
  /// by ~Job before the mailboxes the snapshots read are torn down.
  void stop_monitor();

  /// Discard every mailbox's leftover envelopes and posted receives,
  /// summing what leaked — called after all rank threads joined.
  [[nodiscard]] JobDrain drain_all();

 private:
  struct FailureDomain {
    std::string label;
    std::vector<rank_t> ranks;
    mph::atomic<bool> flag{false};
    std::string reason;
    std::optional<AbortInfo> info;
  };

  int world_size_;
  JobClock clock_;
  // Every layer is declared before the seams, and the seams before the
  // mailboxes (members destroy in reverse order): a seam points at the
  // layers, and every Mailbox — and the fault injector — holds raw seam
  // pointers.  options_ holds the scheduler.
  JobOptions options_;
  std::uint64_t seed_ = 0;  ///< resolved job seed (see seed())
  bool verify_ = false;     ///< scheduler present and verifying
  std::unique_ptr<Checker> checker_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Observer> observer_fan_out_;  ///< only with several layers
  Observer* observer_ = nullptr;  ///< observer seam (null = none on)
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<Interposer> interposer_fan_out_;
  Interposer* interposer_ = nullptr;  ///< interposer seam (null = none on)
  mph::atomic<context_t> next_context_{kWorldContext + 1};
  /// Verify mode: per-rank context counters (disjoint id spaces).
  std::unique_ptr<mph::atomic<context_t>[]> rank_next_context_;
  mph::atomic<std::uint64_t> contexts_allocated_{0};
  /// agree_context's open entries, and (verify mode) every keyed id issued.
  struct AgreedContext {
    context_t context = kWorldContext;
    int asked = 0;
  };
  std::mutex agree_mutex_;
  std::map<std::tuple<context_t, rank_t, std::uint32_t>, AgreedContext>
      agreed_;
  std::set<context_t> keyed_contexts_;
  mph::atomic<std::uint64_t> messages_{0};
  mph::atomic<std::uint64_t> payload_bytes_{0};

  // The abort flag/reason are referenced by every Mailbox.  The reason
  // string is written exactly once, before the flag flips to true (release
  // store in abort()), and only read after observing the flag (acquire
  // loads) — the message-passing protocol mph_racer's mailbox_abort_flag
  // litmus checks (DESIGN.md §14).
  mph::atomic<bool> abort_flag_{false};
  std::string abort_reason_;
  std::optional<AbortInfo> abort_info_;
  mutable std::mutex abort_mutex_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Per-rank annotations (slots written by the owning rank's thread; the
  // mutex serialises those writes against checker-thread reads).
  mutable std::mutex labels_mutex_;
  std::vector<std::string> rank_labels_;
  std::unique_ptr<mph::atomic<bool>[]> rank_failed_;

  // Failure domains.  The map never erases, so FailureDomain addresses are
  // stable once created (mailboxes keep pointers into them).
  mutable std::mutex domains_mutex_;
  std::map<int, std::unique_ptr<FailureDomain>> domains_;
  std::vector<int> rank_domain_;  ///< guarded by domains_mutex_

  // Shared blackboard (see put_shared/get_shared).
  mutable std::mutex shared_mutex_;
  std::map<std::string, std::string> shared_;

  // The watcher is fed by the monitor thread (and by steering code), so it
  // is declared after everything a snapshot reads and before the monitor
  // that drives it.
  std::unique_ptr<watch::Watcher> watcher_;

  // Declared LAST: the monitor thread calls metrics_snapshot(), which
  // reads the mailboxes and liveness flags above, so it must be destroyed
  // (joined) before any of them.
  std::unique_ptr<Monitor> monitor_;
};

}  // namespace minimpi
