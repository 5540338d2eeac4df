#include "src/minimpi/launcher.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/minimpi/error.hpp"
#include "src/minimpi/fault.hpp"
#include "src/minimpi/racer/atomic.hpp"
#include "src/util/diagnostics.hpp"

namespace minimpi {

namespace {

/// The rank-exit hook (set_rank_exit_hook).  Constant-initialised, so it
/// may be set from any static initialiser.
mph::atomic<RankExitHook> g_exit_hook{nullptr};

/// The process-wide pool of rank workers.  A rank runs on the lowest-index
/// idle worker; when none is idle (a nested or concurrent job) the pool
/// starts one more.  Workers park between ranks; the pool never shrinks
/// and is never destroyed, so its threads are detached and nothing joins
/// them, not even at exit.
class RankPool {
 public:
  using Task = std::function<void()>;

  static RankPool& instance() {
    static RankPool* const pool = new RankPool;
    return *pool;
  }

  /// Run `body` on a worker, starting from the calling thread's CPU mask
  /// as a thread it created would.  Afterwards the worker resets its
  /// label, runs the rank-exit hook, marks itself idle and calls `done`
  /// under the pool lock: `done` is the worker's last touch of the
  /// caller's state.  Throws, leaving the pool as it was, when a new
  /// worker is needed and its thread cannot be started.
  void run(Task body, Task done) {
    std::optional<cpu_set_t> mask;
    cpu_set_t own{};
    if (pthread_getaffinity_np(pthread_self(), sizeof own, &own) == 0) {
      mask = own;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    Worker* worker = nullptr;
    for (const std::unique_ptr<Worker>& w : workers_) {
      if (w->idle) {
        worker = w.get();
        break;
      }
    }
    if (worker == nullptr) {
      // Start the thread before publishing its worker; the reserve makes
      // the publishing emplace_back unable to throw.
      auto fresh = std::make_unique<Worker>();
      workers_.reserve(workers_.size() + 1);
      std::thread([this, w = fresh.get()] { loop(*w); }).detach();
      worker = workers_.emplace_back(std::move(fresh)).get();
    }
    worker->idle = false;
    worker->body = std::move(body);
    worker->done = std::move(done);
    worker->mask = mask;
    worker->wake.notify_one();
  }

 private:
  struct Worker {
    bool idle = false;
    Task body;  // non-empty: a rank waits to run
    Task done;
    std::optional<cpu_set_t> mask;  // the launching thread's
    std::condition_variable wake;
  };

  void loop(Worker& self) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      self.wake.wait(lock, [&] { return self.body != nullptr; });
      Task body = std::move(self.body);
      self.body = nullptr;
      const std::optional<cpu_set_t> mask = self.mask;
      lock.unlock();
      // A rank that pinned itself must not pin the next one; an unpinned
      // worker pays one read and no set call.
      cpu_set_t now{};
      if (mask.has_value() &&
          pthread_getaffinity_np(pthread_self(), sizeof now, &now) == 0 &&
          !CPU_EQUAL(&now, &*mask)) {
        pthread_setaffinity_np(pthread_self(), sizeof *mask, &*mask);
      }
      body();
      body = nullptr;
      // Per-rank state a new thread would not have.
      mph::util::set_thread_label("-");
      const RankExitHook hook = g_exit_hook.load(std::memory_order_acquire);
      if (hook != nullptr) hook();
      lock.lock();
      self.idle = true;
      Task done = std::move(self.done);
      self.done = nullptr;
      done();
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Route one rank's failure: domain members abort only their domain (the
/// failure is *contained*), everyone else takes the whole job down.
/// Returns true when the failure was contained.
bool record_failure(Job& job, const AbortInfo& info) {
  const int domain = job.domain_of(info.world_rank);
  if (domain >= 0) {
    job.abort_domain(domain, info);
    return true;
  }
  job.abort(info);
  return false;
}

}  // namespace

RankExitHook set_rank_exit_hook(RankExitHook hook) noexcept {
  return g_exit_hook.exchange(hook, std::memory_order_acq_rel);
}

JobReport run_mpmd(const std::vector<ExecSpec>& specs, JobOptions options) {
  if (specs.empty()) {
    throw Error(Errc::invalid_argument, "run_mpmd: empty command file");
  }
  int total = 0;
  for (const ExecSpec& spec : specs) {
    if (spec.nprocs <= 0) {
      throw Error(Errc::invalid_argument,
                  "run_mpmd: executable '" + spec.name +
                      "' requests nprocs=" + std::to_string(spec.nprocs));
    }
    if (!spec.entry) {
      throw Error(Errc::invalid_argument,
                  "run_mpmd: executable '" + spec.name +
                      "' has no entry point");
    }
    total += spec.nprocs;
  }

  auto job = std::make_shared<Job>(total, options);

  JobReport report;
  std::mutex report_mutex;

  // Respawn is a wall-clock event outside any explored schedule space, so
  // it is incompatible with an installed scheduler (mph_verify).
  bool respawn_enabled = options.respawn.enabled;
  if (respawn_enabled && job->scheduler() != nullptr) {
    MPH_DIAG_LOG(info)
        << "run_mpmd: respawn disabled (a scheduler is installed)";
    respawn_enabled = false;
  }

  // Rank threads report their exit here; the supervisor (this thread)
  // decides whether an exited failure domain gets respawned.
  struct Completion {
    rank_t world_rank = -1;
  };
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::deque<Completion> completions;

  // Per-world-rank bookkeeping, touched only by the supervisor thread
  // (before the initial spawn and after a rank's completion event).
  std::vector<std::size_t> rank_exec(static_cast<std::size_t>(total), 0);
  std::vector<int> rank_incarnation(static_cast<std::size_t>(total), 0);
  std::vector<char> rank_exited(static_cast<std::size_t>(total), 0);

  const auto spawn_rank = [&](std::size_t e, rank_t world_rank,
                              int incarnation) {
    const auto body = [&, e, world_rank, incarnation] {
      const ExecSpec& my_spec = specs[e];
      mph::util::set_thread_label("rank " + std::to_string(world_rank) + " (" +
                                  my_spec.name + ")");
      job->set_rank_label(world_rank, my_spec.name);
      ExecEnv env;
      env.exec_index = static_cast<int>(e);
      env.exec_name = my_spec.name;
      env.args = my_spec.args;
      env.world_rank = world_rank;
      env.incarnation = incarnation;
      // The component attributed to this rank: the handshake layer may
      // relabel the rank with its component name (e.g. an ensemble member);
      // until then the executable name stands in.
      const auto component = [&]() -> std::string {
        std::string label = job->rank_label(world_rank);
        return label.empty() ? my_spec.name : label;
      };
      const auto push = [&](std::vector<RankFailure>& into, std::string op,
                            std::string what) {
        const std::lock_guard<std::mutex> lock(report_mutex);
        into.push_back(RankFailure{world_rank, static_cast<int>(e),
                                   component(), std::move(op),
                                   std::move(what)});
      };
      // Scheduler lifecycle brackets, RAII so a throwing entry point still
      // counts as finished — a finished rank can never send again, which
      // is what the verify scheduler's quiescence detection relies on.
      struct SchedScope {
        Scheduler* sched;
        rank_t rank;
        SchedScope(Scheduler* s, rank_t r) : sched(s), rank(r) {
          if (sched != nullptr) sched->rank_started(rank);
        }
        ~SchedScope() {
          if (sched != nullptr) sched->rank_finished(rank);
        }
      } sched_scope{job->scheduler(), world_rank};
      // Per-rank launch→join anchor on the shared job clock: mph_prof uses
      // the rank_main span as the source/sink of the happens-before DAG.
      // RAII so a failing rank still closes its anchor.
      const TraceSpan main_span(job->tracer(), world_rank, TraceOp::phase,
                                "rank_main", kPhaseRankMain);
      try {
        const Comm world = Comm::world(job, world_rank);
        world.fault_point(KillPoint::entry);
        my_spec.entry(world, env);
        world.fault_point(KillPoint::finish);
      } catch (const AbortedError& ex) {
        // Collateral: some other rank failed first.  When the whole job
        // aborted this is ordinary unwinding; when only this rank's
        // failure domain aborted it is contained collateral.
        job->mark_rank_failed(world_rank);
        push(job->aborted() ? report.failures : report.contained,
             std::string{}, ex.what());
      } catch (const FaultInjectedError& ex) {
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), kill_point_name(ex.point()),
                       ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures,
             kill_point_name(ex.point()), ex.what());
      } catch (const DeadlockError& ex) {
        // mpicheck upgraded a blocked receive into a cycle report; keep
        // it distinct from generic user-code failures.
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), "deadlock", ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures, "deadlock",
             ex.what());
      } catch (const std::exception& ex) {
        MPH_DIAG_LOG(error) << "rank " << world_rank
                            << " failed: " << ex.what();
        job->mark_rank_failed(world_rank);
        AbortInfo info{world_rank, component(), "user code", ex.what()};
        const bool contained = record_failure(*job, info);
        push(contained ? report.contained : report.failures, "user code",
             ex.what());
      }
    };
    // Nothing joins the worker, so this is its last touch of this frame:
    // notify while still holding done_mutex, or the supervisor could wake,
    // return and free done_cv before notify_one() ran.
    const auto done = [&, world_rank] {
      const std::lock_guard<std::mutex> lock(done_mutex);
      completions.push_back(Completion{world_rank});
      done_cv.notify_one();
    };
    try {
      RankPool::instance().run(body, done);
    } catch (const std::exception& ex) {
      // No thread could be started for the rank: fail the job as a
      // failing rank would, so the ranks already running unwind and the
      // supervisor still waits for each of them.  Nothing is respawned.
      respawn_enabled = false;
      job->mark_rank_failed(world_rank);
      {
        const std::lock_guard<std::mutex> lock(report_mutex);
        report.failures.push_back(RankFailure{world_rank,
                                              static_cast<int>(e),
                                              specs[e].name, "launch",
                                              ex.what()});
      }
      job->abort(AbortInfo{world_rank, specs[e].name, "launch", ex.what()});
      return false;
    }
    return true;
  };

  // `remaining` counts the ranks dispatched and not yet completed; no rank
  // is dispatched once one could not be.
  int remaining = 0;
  bool dispatching = true;
  rank_t base = 0;
  for (std::size_t e = 0; e < specs.size() && dispatching; ++e) {
    for (int p = 0; p < specs[e].nprocs && dispatching; ++p) {
      const rank_t world_rank = base + p;
      rank_exec[static_cast<std::size_t>(world_rank)] = e;
      dispatching = spawn_rank(e, world_rank, 0);
      if (dispatching) ++remaining;
    }
    base += specs[e].nprocs;
  }

  // Supervision loop: wait until every live rank thread has exited.  When
  // respawn is enabled and ALL ranks of an aborted failure domain have
  // exited, heal the domain (after the configured backoff) and relaunch its
  // ranks at the next incarnation, up to the per-domain budget.
  std::map<int, int> respawns_used;
  while (remaining > 0) {
    Completion done;
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] { return !completions.empty(); });
      done = completions.front();
      completions.pop_front();
    }
    --remaining;
    rank_exited[static_cast<std::size_t>(done.world_rank)] = 1;
    if (!respawn_enabled) continue;

    const int domain = job->domain_of(done.world_rank);
    if (domain < 0 || !job->domain_aborted(domain)) continue;
    std::vector<rank_t> members = job->domain_ranks(domain);
    // Domain membership is recorded in rank-arrival order; sort so the
    // respawn event (and the incarnation bookkeeping keyed off the first
    // member) is deterministic.
    std::sort(members.begin(), members.end());
    const bool all_exited =
        std::all_of(members.begin(), members.end(), [&](rank_t r) {
          return rank_exited[static_cast<std::size_t>(r)] != 0;
        });
    if (!all_exited) continue;
    int& used = respawns_used[domain];
    if (used >= options.respawn.max_respawns) continue;
    ++used;

    // Exponential backoff per domain: first respawn waits `backoff`, each
    // further respawn of the same domain multiplies by `backoff_factor`.
    auto backoff = options.respawn.backoff;
    for (int i = 1; i < used; ++i) {
      backoff = std::chrono::milliseconds(static_cast<long long>(
          static_cast<double>(backoff.count()) *
          options.respawn.backoff_factor));
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);

    const std::optional<AbortInfo> cause = job->domain_abort_info(domain);
    const std::string label = job->domain_label(domain);
    job->heal_domain(domain);

    RespawnEvent event;
    event.domain_id = domain;
    event.label = label;
    event.ranks = members;
    event.cause = cause.has_value() ? cause->to_string() : std::string{};
    event.backoff = backoff;
    event.incarnation =
        rank_incarnation[static_cast<std::size_t>(members.front())] + 1;
    MPH_DIAG_LOG(info) << "respawning failure domain '" << label << "' ("
                       << members.size() << " ranks, incarnation "
                       << event.incarnation << ")";
    {
      const std::lock_guard<std::mutex> lock(report_mutex);
      report.recovery.respawns.push_back(event);
    }
    for (const rank_t r : members) {
      const auto slot = static_cast<std::size_t>(r);
      rank_exited[slot] = 0;
      const int incarnation = ++rank_incarnation[slot];
      if (!spawn_rank(rank_exec[slot], r, incarnation)) break;
      ++remaining;
    }
  }

  // Every rank reported its completion: park the scheduler's monitor
  // before reporting (the job object may outlive this call inside a verify
  // run's engine loop).
  if (Scheduler* sched = job->scheduler()) sched->stop();

  report.ok = report.failures.empty() && !job->aborted();
  report.stats = job->stats();
  // Drain the trace rings while the mailboxes still hold their counters
  // (drain_all below clears queues, not counters, but keep the order
  // obvious): every rank has completed, so the rings are quiescent.
  if (job->tracer() != nullptr) report.trace = job->trace_report();
  // Stop the monitor thread before taking the report snapshot: with every
  // rank completed and the publisher parked, this final read is exact (the
  // live snapshots tolerate torn reads; JobReport::metrics must not).
  if (job->metrics() != nullptr) {
    job->stop_monitor();
    report.metrics = job->metrics_snapshot();
    if (watch::Watcher* watcher = job->watcher()) {
      // One last judgement on the exact snapshot, then the full event log.
      watcher->observe(*report.metrics);
      report.health = watcher->events();
    }
  }
  if (job->aborted()) report.abort_reason = job->abort_reason();
  report.abort = job->abort_info();
  const JobDrain leaked = job->drain_all();
  report.leaked_envelopes = leaked.envelopes;
  report.leaked_posted_recvs = leaked.posted_recvs;
  if (Checker* checker = job->checker()) {
    checker->stop();  // quiesce the watcher before snapshotting
    report.check = checker->report();
    if (!report.check->clean()) {
      MPH_DIAG_LOG(info) << "mpicheck " << report.check->to_string();
    }
  }
  // Put the root-cause failure first: collateral entries (empty operation,
  // "... aborted: ..." text) are other ranks unwinding.
  const auto is_root_cause = [](const RankFailure& f) {
    return !f.operation.empty();
  };
  std::stable_partition(report.failures.begin(), report.failures.end(),
                        is_root_cause);
  std::stable_partition(report.contained.begin(), report.contained.end(),
                        is_root_cause);
  return report;
}

JobReport run_spmd(
    int nprocs,
    std::function<void(const Comm& world, const ExecEnv& env)> entry,
    JobOptions options) {
  return run_mpmd({ExecSpec{"spmd", nprocs, std::move(entry), {}}}, options);
}

}  // namespace minimpi
