// launcher.hpp — MPMD job launching, the in-process analogue of
// `poe -pgmmodel mpmd -cmdfile` (IBM SP), `mpprun` (Compaq), or
// `mpirun -np a prog1 : -np b prog2` (clusters): the environments the
// paper targets (§6).
//
// A job is a list of ExecSpec entries (one per "executable binary").  Ranks
// are assigned contiguously in command-file order — executable i occupies
// world ranks [base_i, base_i + nprocs_i) — and never overlap, matching the
// resource-allocation policy the paper describes ("each processor or MPI
// process is exclusively owned by an executable").  Each rank runs on its
// own thread; all ranks share one COMM_WORLD.
//
// Rank threads are pooled, not spawned per job: a rank runs on the
// lowest-index idle worker of one process-wide pool, which grows when no
// worker is idle and never shrinks.  So rank r of back-to-back jobs runs on
// the same thread.  A reused worker looks new to its rank: the rank starts
// with the launching thread's CPU mask, and after each rank the worker
// resets its diagnostic label to "-" and runs the rank-exit hook
// (set_rank_exit_hook).  A rank whose thread cannot be started fails the
// job, like a failing rank, with operation "launch".
//
// Crucially, an entry point receives only its world communicator and its
// own executable's environment (name, argv).  It does NOT learn the layout
// of other executables — discovering that is exactly MPH's job.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/job.hpp"

namespace minimpi {

/// Per-rank execution environment handed to an entry point.
struct ExecEnv {
  int exec_index = 0;             ///< position in the command file
  std::string exec_name;          ///< label of the executable entry
  std::vector<std::string> args;  ///< argv-style arguments of the executable
  rank_t world_rank = 0;          ///< this rank's id in COMM_WORLD
  /// 0 on the first launch; incremented each time this rank is respawned as
  /// a failed-member replacement (JobOptions::respawn).  Entry points that
  /// support recovery branch on this: a replacement re-runs the rejoin
  /// handshake and restores from its checkpoint instead of starting fresh.
  int incarnation = 0;
};

/// One command-file line: an "executable" and the processes it gets.
struct ExecSpec {
  std::string name;
  int nprocs = 1;
  /// Entry point, run once per process of this executable.
  std::function<void(const Comm& world, const ExecEnv& env)> entry;
  std::vector<std::string> args;
};

/// Failure of a single rank (entry point threw).
struct RankFailure {
  rank_t world_rank = -1;
  int exec_index = -1;
  std::string component;  ///< executable name of the failed rank
  std::string operation;  ///< kill-point / "user code" / "" for collateral
  std::string what;
};

/// One failed-member replacement performed by the run_mpmd supervisor.
struct RespawnEvent {
  int domain_id = -1;        ///< healed failure domain
  std::string label;         ///< domain label (e.g. the member name)
  int incarnation = 0;       ///< incarnation the replacement ranks started at
  std::vector<rank_t> ranks; ///< world ranks respawned together
  std::string cause;         ///< abort info of the death that triggered it
  std::chrono::milliseconds backoff{0};  ///< delay applied before the heal
};

/// Recovery actions of one job (JobOptions::respawn).
struct RecoveryReport {
  std::vector<RespawnEvent> respawns;
  [[nodiscard]] bool healed() const noexcept { return !respawns.empty(); }
};

/// Result of a completed job.
struct JobReport {
  bool ok = false;
  std::vector<RankFailure> failures;   ///< job-fatal (root cause first)
  std::vector<RankFailure> contained;  ///< confined to a failure domain
  std::string abort_reason;            ///< empty when ok
  /// Structured root cause when the job (not just a domain) aborted.
  std::optional<AbortInfo> abort;
  CommStats stats;  ///< job-wide communication counters
  /// Envelopes still queued in mailboxes after every rank returned.  Zero
  /// for a cleanly-finished job; nonzero means messages were sent but never
  /// received (typical after an abort cut receivers short).
  std::uint64_t leaked_envelopes = 0;
  std::uint64_t leaked_posted_recvs = 0;
  /// mpicheck findings, present when any checker was enabled for the job.
  std::optional<CheckReport> check;
  /// mph_trace timelines + metrics, present when tracing was enabled
  /// (JobOptions::trace / MINIMPI_TRACE); export with
  /// TraceReport::to_chrome_json().
  std::optional<TraceReport> trace;
  /// mph_mon final snapshot, present when monitoring was enabled
  /// (JobOptions::monitor / MINIMPI_MONITOR).  Taken after every rank
  /// joined, so unlike the live snapshots it is exact, not torn.
  std::optional<MetricsSnapshot> metrics;
  /// mph_watch health events, present when watching was enabled
  /// (JobOptions::watch / MINIMPI_WATCH): every rule firing and clearing
  /// over the job's lifetime, including one evaluation of the exact final
  /// snapshot (so monotone rules like fault_burn report even when the
  /// publish interval never elapsed).
  std::vector<watch::HealthEvent> health;
  /// Member replacements performed (empty unless JobOptions::respawn fired).
  /// A healed domain's deaths still appear in `contained`; the respawn
  /// events here say which of them were replaced and when.
  RecoveryReport recovery;

  /// Convenience for tests: message of the first failure ("" when ok).
  [[nodiscard]] std::string first_error() const {
    return failures.empty() ? std::string{} : failures.front().what;
  }
};

/// Run an MPMD job to completion.  Runs sum(nprocs) ranks on pooled rank
/// threads, waits for all of them, and reports failures.  When any rank
/// throws, the job aborts: blocked ranks unwind with AbortedError (recorded
/// separately from the root-cause failure).  Ranks registered into a
/// failure domain (Job::join_domain) abort only their domain: those
/// failures land in `contained` and leave `ok` true for the rest of the job.
JobReport run_mpmd(const std::vector<ExecSpec>& specs, JobOptions options = {});

/// SPMD convenience: n ranks all running the same entry.
JobReport run_spmd(
    int nprocs,
    std::function<void(const Comm& world, const ExecEnv& env)> entry,
    JobOptions options = {});

/// Per-rank state kept in a thread_local outside minimpi must not outlive
/// its rank on a pooled thread.  The rank-exit hook runs on the rank's
/// thread after every rank body returns or throws, once the label is
/// reset, and before the rank counts as completed.  There is one hook:
/// setting it replaces the previous one, which is returned.
using RankExitHook = void (*)() noexcept;
RankExitHook set_rank_exit_hook(RankExitHook hook) noexcept;

}  // namespace minimpi
