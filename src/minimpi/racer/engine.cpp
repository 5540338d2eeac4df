// racer/engine.cpp — exploration engine implementation.  See engine.hpp for
// the architecture, model.hpp for the memory-model fragment and
// util/decision_tree.hpp for the exploration core.
#include "src/minimpi/racer/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/util/decision_tree.hpp"

namespace minimpi::racer {

namespace {

thread_local Engine* tl_engine = nullptr;
thread_local int tl_tid = 0;

/// Installs the engine on the litmus body's thread for one exploration.
class ScopedEngine {
 public:
  explicit ScopedEngine(Engine* e)
      : prev_engine_(tl_engine), prev_tid_(tl_tid) {
    tl_engine = e;
    tl_tid = 0;
  }
  ~ScopedEngine() {
    tl_engine = prev_engine_;
    tl_tid = prev_tid_;
  }
  ScopedEngine(const ScopedEngine&) = delete;
  ScopedEngine& operator=(const ScopedEngine&) = delete;

 private:
  Engine* prev_engine_;
  int prev_tid_;
};

[[nodiscard]] std::uint64_t mask_width(std::uint64_t v, unsigned width) {
  if (width >= 8) return v;
  return v & ((std::uint64_t{1} << (8 * width)) - 1);
}

[[nodiscard]] std::uint64_t eval_rmw(Rmw op, std::uint64_t prev,
                                     std::uint64_t operand, unsigned width) {
  std::uint64_t v = 0;
  switch (op) {
    case Rmw::exchange: v = operand; break;
    case Rmw::add: v = prev + operand; break;
    case Rmw::sub: v = prev - operand; break;
    case Rmw::and_: v = prev & operand; break;
    case Rmw::or_: v = prev | operand; break;
    case Rmw::xor_: v = prev ^ operand; break;
  }
  return mask_width(v, width);
}

[[nodiscard]] std::string store_desc(const Store& s) {
  if (s.tid < 0) return "init";
  return "t" + std::to_string(s.tid) + "#" + std::to_string(s.seq);
}

constexpr std::size_t kMaxEvents = 4096;
constexpr std::string_view kTraceKind = "mph_racer_trace";
constexpr auto kQuiescenceTimeout = std::chrono::seconds(10);

}  // namespace

Engine* current_engine() noexcept { return tl_engine; }

Engine::Engine() = default;
Engine::~Engine() = default;

// ---------------------------------------------------------------------------
// Exploration loop

RacerReport Engine::explore(const std::string& name,
                            const std::function<void()>& body,
                            const RacerOptions& options) {
  return run(name, body, options,
             mph::util::DecisionTree(
                 options.max_executions,
                 std::chrono::milliseconds(options.budget_ms)));
}

RacerReport Engine::replay(const std::string& name,
                           const std::function<void()>& body,
                           const RacerOptions& options,
                           std::vector<Decision> schedule) {
  return run(name, body, options, mph::util::DecisionTree(std::move(schedule)));
}

RacerReport Engine::run(const std::string& name,
                        const std::function<void()>& body,
                        const RacerOptions& options,
                        mph::util::DecisionTree tree) {
  opt_ = options;
  tree_ = std::move(tree);
  RacerReport report;
  report.litmus = name;
  engine_error_.clear();
  ScopedEngine guard(this);

  for (bool more = true; more;) {
    reset_execution();
    bool failed = false;
    std::string reason;
    try {
      body();
    } catch (const LitmusFailure& f) {
      failed = true;
      reason = f.what();
    }
    // RacerError and non-litmus exceptions propagate: they void the whole
    // exploration rather than counting as counterexamples.
    if (sleep_blocked_) ++report.redundant;
    more = tree_.end_run(failed);
    if (failed && tree_.status().divergence.empty()) {
      report.failed = true;
      report.failure_reason = reason;
      report.failure_decisions = tree_.path();
      report.failure_events = events_;
    }
  }

  const mph::util::DecisionTree::Status& status = tree_.status();
  report.executions = status.runs - report.redundant;
  report.frontier_lower_bound = tree_.frontier();
  report.pruned_preemptions = status.pruned;
  report.complete = status.complete;
  report.exec_budget_exhausted = status.run_budget_exhausted;
  report.time_budget_exhausted = status.time_budget_exhausted;
  report.divergence = status.divergence;
  if (!engine_error_.empty()) throw RacerError(engine_error_);
  return report;
}

void Engine::reset_execution() {
  for (auto& ts : threads_) {
    ts.clock = Clock{};
    ts.observed.clear();
    ts.phase = ThreadState::Phase::idle;
    ts.granted = false;
    ts.op = PendingOp{};
    ts.error = nullptr;
  }
  threads_[0].phase = ThreadState::Phase::running;
  next_tid_ = 1;
  spawned_ = parked_ = finished_ = 0;
  locations_.clear();
  loc_index_.clear();
  pending_names_.clear();
  sleeping_.clear();
  events_.clear();
  current_ = 0;
  preemptions_ = 0;
  steps_ = 0;
  drain_ = false;
  sleep_blocked_ = false;
}

// ---------------------------------------------------------------------------
// Turnstile

void Engine::run_threads(std::vector<std::function<void()>> bodies) {
  if (tl_engine != this || tl_tid != 0) {
    throw RacerError(
        "mph_racer: run_threads may only be called from the litmus body "
        "thread (no nested run_threads)");
  }
  std::unique_lock<std::mutex> lk(ts_mutex_);
  if (next_tid_ + static_cast<int>(bodies.size()) > kMaxThreads) {
    throw RacerError("mph_racer: too many worker threads (max " +
                     std::to_string(kMaxThreads - 1) + " per execution)");
  }
  const int base = next_tid_;
  for (auto& body : bodies) {
    const int tid = next_tid_++;
    auto& ts = threads_[tid];
    // Thread start synchronizes-with the body: the worker inherits the
    // spawner's clock and coherence floors.
    ts.clock = threads_[0].clock;
    ts.observed = threads_[0].observed;
    ts.phase = ThreadState::Phase::running;
    ts.granted = false;
    ts.error = nullptr;
    ++spawned_;
    ts.th = std::thread(
        [this, tid, fn = std::move(body)] { worker_main(tid, fn); });
  }

  try {
    drive(lk);
  } catch (...) {
    // Fatal engine diagnostic (quiescence timeout): workers may be stuck on
    // something outside the racer; detach rather than hang the suite.
    lk.unlock();
    for (int t = base; t < next_tid_; ++t) {
      if (threads_[t].th.joinable()) threads_[t].th.detach();
    }
    throw;
  }

  lk.unlock();
  for (int t = base; t < next_tid_; ++t) {
    if (threads_[t].th.joinable()) threads_[t].th.join();
  }
  lk.lock();
  for (int t = base; t < next_tid_; ++t) {
    // Join synchronizes-with: the spawner absorbs worker clocks and floors.
    threads_[0].clock.join(threads_[t].clock);
    for (const auto& [loc, idx] : threads_[t].observed) {
      int& cur = threads_[0].observed[loc];
      if (idx > cur) cur = idx;
    }
  }
  lk.unlock();

  if (!engine_error_.empty()) throw RacerError(engine_error_);
  for (int t = base; t < next_tid_; ++t) {
    if (threads_[t].error) std::rethrow_exception(threads_[t].error);
  }
}

void Engine::worker_main(int tid, const std::function<void()>& body) {
  tl_engine = this;
  tl_tid = tid;
  try {
    body();
  } catch (...) {
    threads_[tid].error = std::current_exception();
  }
  std::lock_guard<std::mutex> lk(ts_mutex_);
  threads_[tid].phase = ThreadState::Phase::finished;
  ++finished_;
  cv_.notify_all();
}

void Engine::drive(std::unique_lock<std::mutex>& lk) {
  while (finished_ < spawned_) {
    const bool quiescent = cv_.wait_for(
        lk, kQuiescenceTimeout,
        [&] { return parked_ + finished_ == spawned_; });
    if (!quiescent) {
      throw RacerError(
          "mph_racer: quiescence timeout — a worker thread is blocked "
          "outside the racer (native mutex/condvar held across an atomic "
          "op, or an unbounded spin loop?)");
    }
    if (finished_ == spawned_) break;

    const int tid = pick_thread();
    auto& ts = threads_[tid];
    apply(tid, ts.op);
    wake_dependent(ts.op);
    --parked_;
    ts.phase = ThreadState::Phase::running;
    ts.granted = true;
    cv_.notify_all();
  }
}

void Engine::execute(PendingOp& op) {
  if (tl_tid == 0) {
    // The litmus body thread runs alone (workers only exist inside
    // run_threads, where the body is blocked driving them), so its ops
    // apply inline without a scheduling decision.
    std::lock_guard<std::mutex> lk(ts_mutex_);
    apply(0, op);
    if (!engine_error_.empty()) throw RacerError(engine_error_);
    return;
  }
  const int tid = tl_tid;
  std::unique_lock<std::mutex> lk(ts_mutex_);
  auto& ts = threads_[tid];
  ts.op = op;
  ts.phase = ThreadState::Phase::parked;
  ++parked_;
  cv_.notify_all();
  cv_.wait(lk, [&] { return ts.granted; });
  ts.granted = false;
  op = ts.op;
  // A model error (step-limit trip, too many threads, ...) must abort the
  // worker too — a spin loop would otherwise keep parking forever and the
  // driver would keep granting it.
  if (!engine_error_.empty()) throw RacerError(engine_error_);
}

int Engine::pick_thread() {
  std::vector<int> order;
  if (current_ >= 1 &&
      threads_[current_].phase == ThreadState::Phase::parked) {
    order.push_back(current_);
  }
  for (int t = 1; t < next_tid_; ++t) {
    if (t != current_ && threads_[t].phase == ThreadState::Phase::parked) {
      order.push_back(t);
    }
  }
  if (drain_) return order.front();

  std::vector<int> awake;
  for (int t : order) {
    if (sleeping_.count(t) == 0) awake.push_back(t);
  }
  if (awake.empty()) {
    // Every runnable thread is asleep: this execution is equivalent to one
    // reached via a different decision order.  Run it out without
    // recording further decisions and count it as redundant.
    sleep_blocked_ = true;
    drain_ = true;
    return order.front();
  }

  const bool cur_runnable = awake.front() == current_;
  int pruned = 0;
  if (cur_runnable && preemptions_ >= opt_.preemption_bound &&
      awake.size() > 1) {
    pruned = static_cast<int>(awake.size()) - 1;
    awake.resize(1);
  }

  std::string note = "sched";
  for (std::size_t i = 0; i < awake.size(); ++i) {
    note += (i == 0 ? " t" : "|t") + std::to_string(awake[i]);
  }
  const int k =
      decide('t', static_cast<int>(awake.size()), pruned, std::move(note));
  for (int i = 0; i < k; ++i) {
    sleeping_.insert(awake[static_cast<std::size_t>(i)]);
  }
  const int chosen = awake[static_cast<std::size_t>(k)];
  if (cur_runnable && chosen != current_) ++preemptions_;
  current_ = chosen;
  return chosen;
}

void Engine::wake_dependent(const PendingOp& applied) {
  if (sleeping_.empty()) return;
  for (auto it = sleeping_.begin(); it != sleeping_.end();) {
    const auto& ts = threads_[static_cast<std::size_t>(*it)];
    const bool dependent = ts.phase == ThreadState::Phase::parked &&
                           ts.op.obj == applied.obj &&
                           (applied.is_write() || ts.op.is_write());
    it = dependent ? sleeping_.erase(it) : std::next(it);
  }
}

// ---------------------------------------------------------------------------
// Decisions

int Engine::decide(char kind, int options, int pruned, std::string note) {
  if (drain_ || (options <= 1 && pruned == 0)) return 0;
  const std::uint32_t k = tree_.decide(
      Decision{0, static_cast<std::uint32_t>(options),
               static_cast<std::uint32_t>(pruned), std::string(1, kind),
               std::move(note)});
  // A diverged execution runs out deterministically, deciding nothing.
  drain_ = !tree_.status().divergence.empty();
  return static_cast<int>(k);
}

// ---------------------------------------------------------------------------
// Memory model

int Engine::touch(const void* obj, std::uint64_t initial) {
  auto it = loc_index_.find(obj);
  if (it != loc_index_.end()) return it->second;
  const int id = static_cast<int>(locations_.size());
  Location loc;
  auto nit = pending_names_.find(obj);
  loc.name = nit != pending_names_.end() ? nit->second
                                         : "a" + std::to_string(id);
  Store init;  // prehistory: the value the object held before exploration
  init.value = initial;
  loc.mo.push_back(init);
  locations_.push_back(std::move(loc));
  loc_index_.emplace(obj, id);
  return id;
}

int Engine::load_floor(const ThreadState& thr, int loc_id, Mo order) const {
  const Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  int floor = 0;
  auto it = thr.observed.find(loc_id);
  if (it != thr.observed.end()) floor = it->second;
  // A load may not read anything older than the newest store that
  // happens-before it; scan newest-first, the first hb hit is the max.
  for (int i = static_cast<int>(loc.mo.size()) - 1; i > floor; --i) {
    if (store_hb(loc.mo[static_cast<std::size_t>(i)], thr.clock)) {
      floor = i;
      break;
    }
  }
  if (order == Mo::seq_cst && loc.last_sc_store > floor) {
    floor = loc.last_sc_store;
  }
  return floor;
}

void Engine::set_observed(ThreadState& thr, int loc_id, int mo_index) {
  int& cur = thr.observed[loc_id];
  if (mo_index > cur) cur = mo_index;
}

void Engine::apply(int tid, PendingOp& op) {
  auto& thr = threads_[static_cast<std::size_t>(tid)];
  if (++steps_ > opt_.max_steps && opt_.max_steps != 0) {
    model_error("mph_racer: per-execution step limit (" +
                std::to_string(opt_.max_steps) +
                ") exceeded — unbounded spin loop in the litmus body?");
  }
  ++thr.clock.c[static_cast<std::size_t>(tid)];

  if (op.kind == PendingOp::Kind::destroy) {
    loc_index_.erase(op.obj);
    return;
  }
  if (op.kind == PendingOp::Kind::init) {
    const int id = touch(op.obj, op.operand);
    Location& loc = locations_[static_cast<std::size_t>(id)];
    loc.mo.clear();
    loc.last_sc_store = 0;
    Store s;  // initialization is an ordinary visible write by this thread
    s.value = op.operand;
    s.tid = tid;
    s.seq = thr.clock.c[static_cast<std::size_t>(tid)];
    s.release = thr.clock;
    loc.mo.push_back(s);
    set_observed(thr, id, 0);
    return;
  }

  const int loc_id = touch(op.obj, op.fallback);
  switch (op.kind) {
    case PendingOp::Kind::load: do_load(tid, op, loc_id); break;
    case PendingOp::Kind::store: do_store(tid, op, loc_id); break;
    case PendingOp::Kind::rmw: do_rmw(tid, op, loc_id); break;
    case PendingOp::Kind::cas: do_cas(tid, op, loc_id); break;
    case PendingOp::Kind::init:
    case PendingOp::Kind::destroy: break;
  }
}

void Engine::do_load(int tid, PendingOp& op, int loc_id) {
  auto& thr = threads_[static_cast<std::size_t>(tid)];
  Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  const int floor = load_floor(thr, loc_id, op.order);
  const int n = static_cast<int>(loc.mo.size()) - floor;
  const int k = decide('r', n, 0, loc.name);
  const int idx = static_cast<int>(loc.mo.size()) - 1 - k;
  const Store& s = loc.mo[static_cast<std::size_t>(idx)];
  if (is_acquire(op.order)) thr.clock.join(s.release);
  set_observed(thr, loc_id, idx);
  op.result = s.value;
  record_event(tid, "load " + loc.name + " -> " + std::to_string(s.value) +
                        " " + mo_name(op.order) + " (rf " + store_desc(s) +
                        ")");
}

std::uint64_t Engine::write(int tid, int loc_id, std::uint64_t value,
                            Mo order, bool rmw) {
  auto& thr = threads_[static_cast<std::size_t>(tid)];
  Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  const Store prev = loc.mo.back();
  Store s;
  s.value = value;
  s.tid = tid;
  s.seq = thr.clock.c[static_cast<std::size_t>(tid)];
  s.sc = order == Mo::seq_cst;
  if (rmw) {
    // An RMW is atomic: it reads the newest store in mo and continues its
    // release sequence.
    if (is_acquire(order)) thr.clock.join(prev.release);
    s.release = prev.release;
    if (is_release(order)) s.release.join(thr.clock);
  } else if (is_release(order)) {
    s.release = thr.clock;
  }
  loc.mo.push_back(s);
  const int idx = static_cast<int>(loc.mo.size()) - 1;
  set_observed(thr, loc_id, idx);
  if (s.sc) loc.last_sc_store = idx;
  return prev.value;
}

void Engine::do_store(int tid, PendingOp& op, int loc_id) {
  (void)write(tid, loc_id, op.operand, op.order, false);
  const Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  record_event(tid, "store " + loc.name + " = " + std::to_string(op.operand) +
                        " " + mo_name(op.order));
}

void Engine::do_rmw(int tid, PendingOp& op, int loc_id) {
  const Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  const std::uint64_t value =
      eval_rmw(op.rop, loc.mo.back().value, op.operand, op.width);
  op.result = write(tid, loc_id, value, op.order, true);
  record_event(tid, "rmw " + loc.name + ": " + std::to_string(op.result) +
                        " -> " + std::to_string(value) + " " +
                        mo_name(op.order));
}

void Engine::do_cas(int tid, PendingOp& op, int loc_id) {
  auto& thr = threads_[static_cast<std::size_t>(tid)];
  Location& loc = locations_[static_cast<std::size_t>(loc_id)];
  // Success must read the newest store (a successful CAS is an RMW);
  // failure is a plain load with the failure order, so it may read any
  // eligible store whose value differs from `expected`.
  const bool can_succeed = loc.mo.back().value == op.expected;
  const int floor = load_floor(thr, loc_id, op.failure_order);
  std::vector<int> fails;
  for (int i = static_cast<int>(loc.mo.size()) - 1; i >= floor; --i) {
    if (loc.mo[static_cast<std::size_t>(i)].value != op.expected) {
      fails.push_back(i);
    }
  }
  const int n = (can_succeed ? 1 : 0) + static_cast<int>(fails.size());
  const int k = decide('c', n, 0, "cas " + loc.name);

  if (can_succeed && k == 0) {
    op.cas_ok = true;
    op.result = write(tid, loc_id, op.operand, op.order, true);
    record_event(tid, "cas " + loc.name + " " + std::to_string(op.expected) +
                          " -> " + std::to_string(op.operand) + " ok " +
                          mo_name(op.order));
    return;
  }

  const int idx = fails[static_cast<std::size_t>(k - (can_succeed ? 1 : 0))];
  const Store& s = loc.mo[static_cast<std::size_t>(idx)];
  if (is_acquire(op.failure_order)) thr.clock.join(s.release);
  set_observed(thr, loc_id, idx);
  op.cas_ok = false;
  op.result = s.value;
  op.expected = s.value;
  record_event(tid, "cas " + loc.name + " failed, saw " +
                        std::to_string(s.value) + " (rf " + store_desc(s) +
                        ") " + mo_name(op.failure_order));
}

void Engine::record_event(int tid, std::string text) {
  if (events_.size() >= kMaxEvents) return;
  events_.push_back(StepEvent{tid, std::move(text)});
}

void Engine::model_error(std::string what) {
  if (engine_error_.empty()) engine_error_ = std::move(what);
  drain_ = true;
}

// ---------------------------------------------------------------------------
// Shim entry points

std::uint64_t shim_load(Engine& e, const void* obj, Mo order,
                        std::uint64_t fallback) {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::load;
  op.obj = obj;
  op.order = order;
  op.fallback = fallback;
  e.execute(op);
  return op.result;
}

void shim_store(Engine& e, const void* obj, std::uint64_t value, Mo order,
                std::uint64_t fallback) {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::store;
  op.obj = obj;
  op.order = order;
  op.operand = value;
  op.fallback = fallback;
  e.execute(op);
}

std::uint64_t shim_rmw(Engine& e, const void* obj, Rmw rop,
                       std::uint64_t operand, unsigned width, Mo order,
                       std::uint64_t fallback) {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::rmw;
  op.obj = obj;
  op.order = order;
  op.rop = rop;
  op.operand = operand;
  op.width = width;
  op.fallback = fallback;
  e.execute(op);
  return op.result;
}

bool shim_cas(Engine& e, const void* obj, std::uint64_t& expected,
              std::uint64_t desired, Mo success, Mo failure,
              std::uint64_t fallback) {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::cas;
  op.obj = obj;
  op.order = success;
  op.failure_order = failure;
  op.operand = desired;
  op.expected = expected;
  op.fallback = fallback;
  e.execute(op);
  expected = op.expected;
  return op.cas_ok;
}

void shim_init(Engine& e, const void* obj, std::uint64_t value) {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::init;
  op.obj = obj;
  op.operand = value;
  e.execute(op);
}

void shim_destroy(Engine& e, const void* obj) noexcept {
  Engine::PendingOp op;
  op.kind = Engine::PendingOp::Kind::destroy;
  op.obj = obj;
  try {
    e.execute(op);
  } catch (...) {
    // Destructors must not throw; a pending engine error resurfaces at the
    // next op or at the end of Engine::run.
  }
}

void name_location(const void* obj, const char* name) {
  Engine* e = tl_engine;
  if (e == nullptr) return;
  std::lock_guard<std::mutex> lk(e->ts_mutex_);
  auto it = e->loc_index_.find(obj);
  if (it != e->loc_index_.end()) {
    e->locations_[static_cast<std::size_t>(it->second)].name = name;
  }
  e->pending_names_[obj] = name;
}

// ---------------------------------------------------------------------------
// run_threads + reporting

void run_threads(std::vector<std::function<void()>> bodies) {
  Engine* e = tl_engine;
  if (e == nullptr) {
    throw RacerError(
        "mph_racer: run_threads outside an engine (run litmus bodies "
        "through Engine::explore or Engine::replay)");
  }
  e->run_threads(std::move(bodies));
}

std::string RacerReport::summary() const {
  std::string s = litmus + ": explored " + std::to_string(executions) +
                  " execution(s)";
  if (redundant != 0) {
    s += " (+" + std::to_string(redundant) + " sleep-set redundant)";
  }
  s += " of >= " + std::to_string(frontier_lower_bound);
  if (complete) {
    s += pruned_preemptions != 0
             ? "; complete within preemption bound (pruned " +
                   std::to_string(pruned_preemptions) + " switch(es))"
             : "; complete";
  }
  if (exec_budget_exhausted) s += "; execution budget exhausted";
  if (time_budget_exhausted) s += "; time budget exhausted";
  if (!divergence.empty()) s += "; DIVERGENCE: " + divergence;
  if (failed) s += "; FAILURE: " + failure_reason;
  return s;
}

std::string write_racer_trace(const RacerReport& report) {
  std::vector<std::string> events;
  for (const StepEvent& ev : report.failure_events) {
    events.push_back("{\"tid\": " + std::to_string(ev.tid) +
                     ", \"text\": " + mph::util::json_quoted(ev.text) + "}");
  }
  std::vector<std::string> decisions;
  for (const Decision& d : report.failure_decisions) {
    decisions.push_back(
        "{\"kind\": " + mph::util::json_quoted(d.shape) +
        ", \"chosen\": " + std::to_string(d.chosen) +
        ", \"options\": " + std::to_string(d.options) +
        ", \"pruned\": " + std::to_string(d.pruned) +
        ", \"note\": " + mph::util::json_quoted(d.note) + "}");
  }
  return mph::util::write_trace(
      kTraceKind,
      {{"litmus", mph::util::json_quoted(report.litmus)},
       {"reason", mph::util::json_quoted(report.failure_reason)},
       {"events", mph::util::json_lines(events)}},
      decisions);
}

RacerTrace read_racer_trace(const std::string& text) {
  RacerTrace trace;
  mph::util::read_trace(
      text, kTraceKind,
      [&](mph::util::JsonFields& header) {
        header.get("litmus", trace.litmus);
        std::string reason;  // informational, like the events
        header.get("reason", reason);
        if (const auto* events = header.take("events")) (void)events->items();
      },
      [&](mph::util::JsonFields& fields) {
        Decision& d = trace.decisions.emplace_back();
        fields.get("kind", d.shape);
        fields.get("chosen", d.chosen);
        fields.get("options", d.options);
        fields.get("pruned", d.pruned);
        fields.get("note", d.note);
      });
  return trace;
}

}  // namespace minimpi::racer
