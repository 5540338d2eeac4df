// racer/engine.hpp — the mph_racer exploration engine.
//
// Stateless model checking on the same core as mph_verify
// (util::DecisionTree, DESIGN.md §10 and §14), applied one layer down:
// instead of wildcard-match decisions, the engine feeds the tree every
// branch point of a small multi-threaded litmus body — which runnable
// thread takes the next atomic step, which store each load reads from
// under the memory model in model.hpp, and whether each CAS succeeds or
// fails (and against which store).  The tree owns the decision stack,
// replay-from-prefix, divergence, budgets and the "explored N of >= M"
// frontier; the engine keeps the memory model, the DPOR-style sleep sets
// and the CHESS-style preemption bound (whose pruned switches the tree
// counts in the frontier).  A failing execution is captured as a JSON
// trace in the tree's envelope that `tools/mph_racer --schedule` replays
// to the same failure.
//
// Litmus bodies run on real std::threads coordinated by a turnstile: every
// mph::atomic operation parks the thread and announces a PendingOp; the
// driver waits until all live threads are parked or finished, picks one via
// a recorded decision, applies its operation to the model under the engine
// lock, and grants it.  Between the park points the body runs native code
// freely, so litmus tests exercise the real TraceRing / MetricsRegistry
// implementations, not transliterations.
//
// Only translation units compiled with -DMPH_RACER=1 (the minimpi_racer
// library) may include this header.
#pragma once

#if !defined(MPH_RACER) || !MPH_RACER
#error \
    "racer/engine.hpp requires -DMPH_RACER=1 (link minimpi_racer, not minimpi)"
#endif

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/minimpi/racer/model.hpp"

namespace minimpi::racer {

/// Invariant violation raised by RACER_CHECK inside a litmus body.  The
/// engine catches it, captures the decision stack + event log as a
/// counterexample, and stops exploring.
class LitmusFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Engine malfunction or unsupported usage (too many threads, quiescence
/// timeout, nested run_threads).  Aborts the whole exploration.
class RacerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exploration budgets and bounds.  The defaults suit litmus-sized bodies;
/// each registered litmus pins its own (tests/racer asserts completeness at
/// the pinned bounds, so loosening them is a reviewed change).
struct RacerOptions {
  std::uint64_t max_executions = 200000;  ///< 0 = unlimited
  std::uint64_t budget_ms = 0;            ///< wall-clock budget; 0 = none
  int preemption_bound = 2;  ///< max context switches away from a runnable
                             ///< thread (rf branching is never bounded)
  std::uint64_t max_steps = 20000;  ///< per-execution op cap (spin-loop trap)
};

/// What one exploration did.  `ok()` is the gate predicate: complete, no
/// divergence, no failure (callers expecting a mutant invert `failed`).
struct RacerReport {
  std::string litmus;
  std::uint64_t executions = 0;  ///< distinct executions fully run
  std::uint64_t redundant = 0;   ///< sleep-set-blocked executions drained
  std::uint64_t frontier_lower_bound = 0;  ///< ">= M" in "explored N of >= M"
  std::uint64_t pruned_preemptions = 0;  ///< branches cut by the bound
  bool complete = false;  ///< frontier exhausted (within the preemption bound)
  bool exec_budget_exhausted = false;
  bool time_budget_exhausted = false;
  std::string divergence;  ///< non-empty: replay mismatch, exploration void
  bool failed = false;
  std::string failure_reason;
  std::vector<Decision> failure_decisions;  ///< schedule reproducing failure
  std::vector<StepEvent> failure_events;    ///< applied-op log of that run

  /// Gate predicate for "this litmus must pass": every execution within the
  /// bound was checked and none failed.
  [[nodiscard]] bool ok() const {
    return complete && divergence.empty() && !failed;
  }
  [[nodiscard]] std::string summary() const;
};

/// A dumped counterexample: the litmus it belongs to and its schedule.
struct RacerTrace {
  std::string litmus;
  std::vector<Decision> decisions;
};

/// A failing report as a replayable counterexample in the shared envelope
/// (util/decision_tree.hpp, kind "mph_racer_trace"): the litmus and the
/// failure reason, the applied-op log, then the decisions.
[[nodiscard]] std::string write_racer_trace(const RacerReport& report);

/// Read a dumped counterexample through the shared strict reader; throws
/// std::runtime_error naming the bad key or value.
[[nodiscard]] RacerTrace read_racer_trace(const std::string& text);

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Exhaustively explore `body` (stopping at the first failing execution).
  RacerReport explore(const std::string& name,
                      const std::function<void()>& body,
                      const RacerOptions& options);

  /// Run exactly one execution with every decision of `schedule` (from a
  /// counterexample trace) forced.  Mismatching branch shapes, and an
  /// execution that needs more or fewer decisions than the schedule
  /// holds, are reported as divergence.
  RacerReport replay(const std::string& name,
                     const std::function<void()>& body,
                     const RacerOptions& options,
                     std::vector<Decision> schedule);

  /// Spawn one worker per body, interleave their atomic ops under the
  /// model, join them, and re-throw the lowest-tid worker exception (after
  /// all workers finished).  Callable from the litmus body (tid 0) only.
  void run_threads(std::vector<std::function<void()>> bodies);

 private:
  friend std::uint64_t shim_load(Engine&, const void*, Mo, std::uint64_t);
  friend void shim_store(Engine&, const void*, std::uint64_t, Mo,
                         std::uint64_t);
  friend std::uint64_t shim_rmw(Engine&, const void*, Rmw, std::uint64_t,
                                unsigned, Mo, std::uint64_t);
  friend bool shim_cas(Engine&, const void*, std::uint64_t&, std::uint64_t,
                       Mo, Mo, std::uint64_t);
  friend void shim_init(Engine&, const void*, std::uint64_t);
  friend void shim_destroy(Engine&, const void*) noexcept;
  friend void name_location(const void*, const char*);

  struct PendingOp {
    enum class Kind : std::uint8_t { load, store, rmw, cas, init, destroy };
    Kind kind = Kind::load;
    const void* obj = nullptr;
    Mo order = Mo::seq_cst;
    Mo failure_order = Mo::seq_cst;
    Rmw rop = Rmw::exchange;
    std::uint64_t operand = 0;   ///< store value / rmw operand / cas desired
    std::uint64_t expected = 0;  ///< cas comparand in, observed value out
    std::uint64_t fallback = 0;  ///< first-touch initial value
    std::uint64_t result = 0;
    unsigned width = 8;          ///< sizeof(T), for rmw wraparound
    bool cas_ok = false;
    [[nodiscard]] bool is_write() const noexcept {
      return kind != Kind::load;
    }
  };

  struct ThreadState {
    enum class Phase : std::uint8_t { idle, running, parked, finished };
    Clock clock;
    std::unordered_map<int, int> observed;  ///< loc id -> coherence floor
    Phase phase = Phase::idle;
    bool granted = false;
    PendingOp op;
    std::exception_ptr error;
    std::thread th;
  };

  // One atomic op from the calling thread's perspective: tid 0 applies
  // inline; workers park on the turnstile and wait for a grant.
  void execute(PendingOp& op);
  void worker_main(int tid, const std::function<void()>& body);

  // Driver side (all under ts_mutex_).
  void drive(std::unique_lock<std::mutex>& lk);
  int pick_thread();
  void apply(int tid, PendingOp& op);
  void do_load(int tid, PendingOp& op, int loc_id);
  void do_store(int tid, PendingOp& op, int loc_id);
  void do_rmw(int tid, PendingOp& op, int loc_id);
  /// Append `tid`'s write of `value` to the location's modification order;
  /// returns the value of the store it follows (what an RMW read).
  std::uint64_t write(int tid, int loc_id, std::uint64_t value, Mo order,
                      bool rmw);
  void do_cas(int tid, PendingOp& op, int loc_id);
  void wake_dependent(const PendingOp& applied);
  int decide(char kind, int options, int pruned, std::string note);
  int touch(const void* obj, std::uint64_t initial);
  int load_floor(const ThreadState& thr, int loc_id, Mo order) const;
  void set_observed(ThreadState& thr, int loc_id, int mo_index);
  void record_event(int tid, std::string text);
  void model_error(std::string what);

  RacerReport run(const std::string& name, const std::function<void()>& body,
                  const RacerOptions& options, mph::util::DecisionTree tree);
  void reset_execution();

  // --- turnstile ---
  std::mutex ts_mutex_;
  std::condition_variable cv_;
  std::array<ThreadState, kMaxThreads> threads_;
  int next_tid_ = 1;
  int spawned_ = 0;
  int parked_ = 0;
  int finished_ = 0;

  // --- per-execution model state ---
  std::vector<Location> locations_;
  std::unordered_map<const void*, int> loc_index_;
  std::unordered_map<const void*, std::string> pending_names_;
  std::unordered_set<int> sleeping_;
  std::vector<StepEvent> events_;
  int current_ = 0;
  int preemptions_ = 0;
  std::uint64_t steps_ = 0;
  bool drain_ = false;         ///< stop branching, run out deterministically
  bool sleep_blocked_ = false; ///< this execution is a sleep-set redundancy
  std::string engine_error_;

  // --- exploration state ---
  mph::util::DecisionTree tree_{0, std::chrono::milliseconds(0)};
  RacerOptions opt_;
};

/// The engine driving this thread, if any (set for the litmus body and its
/// workers during explore/replay).
[[nodiscard]] Engine* current_engine() noexcept;

/// Spawn-and-join helper litmus bodies use: Engine::run_threads of the
/// engine driving this thread (modeled interleaving).  Throws RacerError
/// when no engine is active.
void run_threads(std::vector<std::function<void()>> bodies);

}  // namespace minimpi::racer

/// Invariant check for litmus bodies: throws LitmusFailure with the failed
/// expression and message.  Usable from worker threads; the engine delivers
/// worker failures at join.
#define RACER_CHECK(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::minimpi::racer::LitmusFailure(std::string(msg) +        \
                                            " [failed: " #cond "]");  \
    }                                                                 \
  } while (0)
