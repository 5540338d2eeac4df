// mph_bench — the repository's benchmark: five seeded workloads measured end
// to end with tracing off (--trace 0), and split into per-layer numbers by a
// separate traced run (--trace 1).  README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root lists them.
//
//   mph_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//
// One process runs one workload, so peak_rss_mb belongs to that workload
// alone.  Every rank thread pins itself to a CPU at entry.  The seed drives
// payload contents, fanin message sizes, registry block order and the order
// of modes in `handshake`.  The first unit of every phase and the first 10%
// of the operations of each job are warm-up and are not timed.
//
// Standard output ends with one JSON line:
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
// and the exit status is 1 when any output check failed.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/minimpi/collectives.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/prof/profile.hpp"
#include "src/mph/mph.hpp"
#include "src/util/rng.hpp"

#ifndef MPH_BENCH_BUILD_TYPE
#define MPH_BENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Allocation counter (comm.allocs_*).  Every operator new in this binary bumps
// the calling thread's counter.  The default array form forwards here, and
// the default operator delete ends in free(), which matches the malloc below.
// ---------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++t_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

namespace {

using minimpi::Comm;
using minimpi::rank_t;
using mph::util::Rng;

constexpr minimpi::tag_t kTagPing = 7;
constexpr minimpi::tag_t kTagPong = 8;
constexpr minimpi::tag_t kTagData = 9;
constexpr minimpi::tag_t kTagAck = 10;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finaliser: the seeded payload word `k` of a stream.
std::uint64_t pattern(std::uint64_t stream, std::uint64_t k) {
  std::uint64_t z = stream + (k + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Run-level value of a per-unit latency or rate: its 1st percentile over
/// the run's units (the 99th for a rate).  Co-tenants of the shared host
/// slow single jobs, and sometimes whole runs, by 10-60%; noise only ever
/// adds time, and the fast tail repeats best from run to run, where the
/// median over units does not (README.md, "Noise").  The median and the
/// slow tail are printed beside it (print_spread).
double fast_tail(std::vector<double> v, bool rate = false) {
  return quantile(std::move(v), rate ? 0.99 : 0.01);
}

/// The highest of p99 / p90 / p75 / p50 with at least ten of `n` samples
/// beyond it, as a fraction; 0.5 when there are fewer than 20 samples.
double reported_tail(std::size_t n) {
  for (const double q : {0.99, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1 - q) >= 10) return q;
  }
  return 0.5;
}

/// Fixed-capacity sample buffer, touched when created so that the memory a
/// run keeps for its samples does not depend on how many it takes — a
/// faster program takes more, and peak_rss_mb must not charge it for that.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : v_(capacity, 0.0) {}
  void add(double x) {
    if (n_ < v_.size()) v_[n_++] = x;
  }
  [[nodiscard]] bool full() const { return n_ == v_.size(); }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::vector<double> values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }

 private:
  std::vector<double> v_;
  std::size_t n_ = 0;
};

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// CPUs this process may run on, ascending.  First called from main, before
/// any thread has pinned itself.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

/// Placement slot → CPU: slot i runs on the i-th allowed CPU, wrapping.
int cpu_of_slot(int slot) {
  const std::vector<int>& cpus = allowed_cpus();
  return cpus[static_cast<std::size_t>(slot) % cpus.size()];
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    throw std::runtime_error("cannot pin to cpu " + std::to_string(cpu) +
                             ": " + std::strerror(rc));
  }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One job's executables, registration file and expected directory.
struct Layout {
  struct Exec {
    std::string name;
    int nprocs = 1;
    mph::LocalDeclaration decl;
  };
  /// A component and the world ranks it must resolve to.
  struct Expect {
    std::string name;
    rank_t low = 0;
    rank_t high = 0;
  };
  std::vector<Exec> execs;
  std::string registry;
  std::vector<Expect> expect;
  std::vector<int> cpu_slots;  ///< per world rank; empty: unpinned

  [[nodiscard]] int world_size() const {
    int n = 0;
    for (const Exec& e : execs) n += e.nprocs;
    return n;
  }
};

Layout::Exec components(std::string name, int nprocs,
                        std::vector<std::string> names) {
  return {std::move(name), nprocs, mph::LocalDeclaration{false, std::move(names)}};
}

Layout::Exec single(const std::string& name, int nprocs) {
  return components(name, nprocs, {name});
}

/// One executable's entry in the registration file: a single-component
/// line, or a Multi_Component / Multi_Instance block (`keyword`).
struct Block {
  std::string keyword;
  std::vector<std::string> lines;
};

/// Registration text with the blocks in a seeded order.  The order of
/// executables in the file is irrelevant to MPH (paper §4.1); the line order
/// inside a block is not, so it stays.
std::string registry_text(std::vector<Block> blocks, Rng& rng) {
  shuffle(blocks, rng);
  std::string text = "BEGIN\n";
  for (const Block& b : blocks) {
    if (!b.keyword.empty()) text += b.keyword + "_Begin\n";
    for (const std::string& line : b.lines) text += line + "\n";
    if (!b.keyword.empty()) text += b.keyword + "_End\n";
  }
  return text + "END\n";
}

/// "ping:0->cpu0 pong:0->cpu0" — where each rank of a layout runs.
std::string placement_of(const Layout& layout) {
  std::string out;
  int rank = 0;
  for (const Layout::Exec& e : layout.execs) {
    for (int local = 0; local < e.nprocs; ++local, ++rank) {
      if (!out.empty()) out += ' ';
      out += e.name + ":" + std::to_string(local) + "->";
      out += layout.cpu_slots.empty()
                 ? std::string("any")
                 : "cpu" + std::to_string(cpu_of_slot(
                               layout.cpu_slots[static_cast<std::size_t>(rank)]));
    }
  }
  return out;
}

/// Bench-side stamps of one rank: written only by that rank's thread, read
/// after run_mpmd has joined it.
struct RankStamps {
  std::int64_t enter = 0;     ///< entry point started (after pinning)
  std::int64_t resolved = 0;  ///< RegistrySource::resolve returned
  std::int64_t setup = 0;     ///< the handshake returned
  std::int64_t start = 0;     ///< left the common-start barrier
  std::int64_t end = 0;       ///< body returned
  std::int64_t exit = 0;      ///< entry point about to return
  std::uint64_t allocs = 0;       ///< operator new calls, entry to exit
  std::uint64_t body_allocs = 0;  ///< ... of which inside the body
  std::uint64_t failed = 0;   ///< failed output checks on this rank
  double lookup_ns = 0;       ///< JobMode::time_lookups, rank 0 only
};

/// What one launched job contributes to the per-layer split (µs, shares).
struct JobLayers {
  double launch_us = 0;   ///< run_mpmd call → last rank entered
  double join_us = 0;     ///< last rank returned → run_mpmd returned
  double setup_us = 0;    ///< run_mpmd call → last rank out of the handshake
  // setup_us - launch_us split at the moment the last rank left
  // RegistrySource::resolve: the time each call holds up the job once every
  // rank has entered.
  double resolve_us = 0;  ///< last rank entered → last rank resolved
  double call_us = 0;     ///< last rank resolved → last rank out of handshake
  double queue_high_water = 0;  ///< CommStats: deepest unmatched backlog
  // Traced jobs only, from the spans the library records.
  bool traced = false;
  double allgather_us = 0;
  double layout_us = 0;
  double comm_setup_us = 0;
  double wait_share = 0;  ///< (p2p + collective blocked) / rank wall
  double coll_share = 0;  ///< collective blocked / rank wall
  double busy_min = 0;    ///< min over ranks of unblocked share of wall
  std::uint64_t dropped = 0;
  bool profiled = false;  ///< critical-path shares below are set
  double prof_compute = 0;
  double prof_wait = 0;
  double prof_handshake = 0;
};

/// How to run a job.
struct JobMode {
  std::uint64_t ops = 0;       ///< operations per job, in the workload's unit
  bool traced = false;         ///< JobOptions::trace
  bool profile = false;        ///< critical-path profile of the trace
  bool setup_only = false;     ///< launch, handshake, directory check only
  bool time_lookups = false;   ///< rank 0 times Mph::global_rank_of
};

/// One measured unit of a workload — a job, or one cycle of five jobs for
/// `handshake` — summarised as soon as it ends.
struct JobSample {
  std::vector<double> setup_s;  ///< one per launched job
  double latency_us = 0;        ///< median latency of the measured ops
  double ops_per_s = 0;         ///< measured ops over their time
  std::uint64_t ops = 0;        ///< ops run, warm-up included
  std::uint64_t failed = 0;     ///< failed checks and failed jobs
  std::uint64_t messages = 0;   ///< CommStats, summed over launched jobs
  std::uint64_t bytes = 0;
  std::uint64_t contexts = 0;
  std::uint64_t allocs = 0;            ///< operator new calls on rank threads
  std::uint64_t body_allocs = 0;       ///< ... of which inside bodies
  std::vector<JobLayers> layers;       ///< one per launched job
  std::vector<double> lookup_ns;       ///< JobMode::time_lookups
};

/// A rank's work after the common-start barrier; returns failed checks.
using Body = std::function<std::uint64_t(mph::Mph& h, int exec_index)>;

/// Wall-clock ends of one run_mpmd call, plus each rank's stamps.
struct JobRun {
  std::int64_t call = 0;
  std::int64_t ret = 0;
  std::vector<RankStamps> stamps;
};

/// Failed checks of this rank's directory against the layout.
std::uint64_t check_directory(const mph::Mph& h, const Layout& layout) {
  std::uint64_t failed = 0;
  const mph::Directory& dir = h.directory();
  if (dir.total_components() != static_cast<int>(layout.expect.size())) {
    ++failed;
  }
  const rank_t me = h.global_proc_id();
  for (const Layout::Expect& e : layout.expect) {
    if (!dir.has_component(e.name)) {
      ++failed;
      continue;
    }
    const mph::ComponentRecord& rec = dir.component(e.name);
    if (rec.global_low != e.low || rec.global_high != e.high) ++failed;
    if (me >= e.low && me <= e.high &&
        (h.comp_name() != e.name || h.local_proc_id() != me - e.low)) {
      ++failed;
    }
  }
  return failed;
}

/// Mean cost of one Mph::global_rank_of over every component name, timed
/// over 10^6 calls.  The sum of the answers is checked, which also keeps the
/// loop from being optimised away.
double time_lookups(const mph::Mph& h, std::uint64_t& failed) {
  constexpr std::size_t kCalls = 1'000'000;
  const std::vector<std::string> names = h.directory().component_names();
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    expected += h.directory().component(names[i]).global_low;
  }
  expected *= static_cast<std::int64_t>(kCalls / names.size());
  std::int64_t sum = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) {
    sum += h.global_rank_of(names[i % names.size()], 0);
  }
  const std::int64_t t1 = now_ns();
  if (kCalls % names.size() == 0 && sum != expected) ++failed;
  return static_cast<double>(t1 - t0) / static_cast<double>(kCalls);
}

/// Per-layer numbers of one traced job, from its spans.
void analyze_trace(const minimpi::TraceReport& trace, bool profile,
                   JobLayers& out) {
  using minimpi::TraceOp;
  out.traced = true;
  const std::vector<minimpi::TraceReport::RankBlocked> blocked =
      trace.blocked_breakdown();
  std::array<std::uint64_t, 3> phase_max{};
  std::uint64_t wall_total = 0;
  std::uint64_t wait = 0;
  std::uint64_t coll = 0;
  out.busy_min = 1.0;
  for (std::size_t i = 0; i < trace.ranks.size(); ++i) {
    const minimpi::RankTrace& rank = trace.ranks[i];
    out.dropped += rank.dropped;
    std::uint64_t wall = 0;
    std::array<std::uint64_t, 3> phase{};
    for (const minimpi::TraceEvent& e : rank.events) {
      if (e.op != TraceOp::phase || !e.span) continue;
      const std::uint64_t d = e.t_end_ns - e.t_start_ns;
      switch (e.tag) {
        case minimpi::kPhaseRankMain: wall += d; break;
        case minimpi::kPhaseSignatures: phase[0] += d; break;
        case minimpi::kPhaseLayout: phase[1] += d; break;
        case minimpi::kPhaseCommSetup: phase[2] += d; break;
        default: break;
      }
    }
    for (std::size_t k = 0; k < phase.size(); ++k) {
      phase_max[k] = std::max(phase_max[k], phase[k]);
    }
    const minimpi::TraceReport::RankBlocked& b = blocked[i];
    wall_total += wall;
    wait += b.recv_wait_ns + b.collective_wait_ns;
    coll += b.collective_wait_ns;
    if (wall > 0) {
      const std::uint64_t idle = std::min(wall, b.total_ns());
      out.busy_min = std::min(
          out.busy_min, static_cast<double>(wall - idle) / static_cast<double>(wall));
    }
  }
  out.allgather_us = static_cast<double>(phase_max[0]) / 1e3;
  out.layout_us = static_cast<double>(phase_max[1]) / 1e3;
  out.comm_setup_us = static_cast<double>(phase_max[2]) / 1e3;
  if (wall_total > 0) {
    out.wait_share = static_cast<double>(wait) / static_cast<double>(wall_total);
    out.coll_share = static_cast<double>(coll) / static_cast<double>(wall_total);
  }
  if (!profile) return;
  const minimpi::prof::Profile p =
      minimpi::prof::Graph::build(trace).profile();
  if (p.path_total_ns == 0) return;
  using minimpi::prof::SegmentKind;
  const auto share = [&](SegmentKind k) {
    return static_cast<double>(p.kind_ns[static_cast<std::size_t>(k)]) /
           static_cast<double>(p.path_total_ns);
  };
  out.profiled = true;
  out.prof_compute = share(SegmentKind::compute);
  out.prof_wait =
      share(SegmentKind::recv_wait) + share(SegmentKind::collective_wait);
  out.prof_handshake = share(SegmentKind::handshake);
}

/// Launch one job of `layout`: every rank pins itself, resolves the
/// registry, runs the handshake, checks its directory, and — unless
/// setup_only — meets the others at a world barrier and runs `body`.  The
/// job's summary is added to `out`.
JobRun run_job(const Layout& layout, const Body& body, const JobMode& mode,
               std::size_t ring_events, JobSample& out) {
  JobRun run;
  run.stamps.resize(static_cast<std::size_t>(layout.world_size()));
  std::vector<minimpi::ExecSpec> specs;
  for (std::size_t i = 0; i < layout.execs.size(); ++i) {
    const Layout::Exec& exec = layout.execs[i];
    specs.push_back(minimpi::ExecSpec{
        exec.name, exec.nprocs,
        [&layout, &body, &mode, &run, &exec, i](const Comm& world,
                                                const minimpi::ExecEnv&) {
          const rank_t r = world.rank();
          if (!layout.cpu_slots.empty()) {
            pin_self(cpu_of_slot(layout.cpu_slots[static_cast<std::size_t>(r)]));
          }
          RankStamps& st = run.stamps[static_cast<std::size_t>(r)];
          const std::uint64_t allocs = t_allocs;
          st.enter = now_ns();
          mph::Registry registry =
              mph::RegistrySource::from_text(layout.registry).resolve(world);
          st.resolved = now_ns();
          const mph::RegistrySource source =
              mph::RegistrySource::from_registry(std::move(registry));
          mph::Mph h = exec.decl.is_instance
                           ? mph::Mph::multi_instance(world, source,
                                                      exec.decl.names.front())
                           : mph::Mph::components_setup(world, source,
                                                        exec.decl.names);
          st.setup = now_ns();
          st.failed = check_directory(h, layout);
          if (mode.time_lookups && r == 0) {
            st.lookup_ns = time_lookups(h, st.failed);
          }
          if (!mode.setup_only) {
            minimpi::barrier(h.world());
            st.start = now_ns();
            const std::uint64_t body_allocs = t_allocs;
            st.failed += body(h, static_cast<int>(i));
            st.body_allocs = t_allocs - body_allocs;
            st.end = now_ns();
          }
          st.allocs = t_allocs - allocs;
          st.exit = now_ns();
        },
        {}});
  }
  minimpi::JobOptions options;
  options.recv_timeout = std::chrono::seconds(60);
  options.seed = 1;  // fixed: no OS entropy draw per job
  options.trace.enabled = mode.traced;
  options.trace.ring_capacity = ring_events;
  run.call = now_ns();
  const minimpi::JobReport report = minimpi::run_mpmd(specs, options);
  run.ret = now_ns();

  if (!report.ok) {
    ++out.failed;
    std::fprintf(stderr, "mph_bench: job failed: %s\n",
                 report.abort_reason.c_str());
  }
  JobLayers layers;
  std::int64_t last_enter = 0;
  std::int64_t last_resolved = 0;
  std::int64_t last_setup = 0;
  std::int64_t last_exit = 0;
  for (const RankStamps& st : run.stamps) {
    last_enter = std::max(last_enter, st.enter);
    last_resolved = std::max(last_resolved, st.resolved);
    last_setup = std::max(last_setup, st.setup);
    last_exit = std::max(last_exit, st.exit);
    out.failed += st.failed;
    out.allocs += st.allocs;
    out.body_allocs += st.body_allocs;
  }
  const auto us = [](std::int64_t from, std::int64_t to) {
    return static_cast<double>(to - from) / 1e3;
  };
  layers.launch_us = us(run.call, last_enter);
  layers.resolve_us = us(last_enter, last_resolved);
  layers.call_us = us(last_resolved, last_setup);
  layers.setup_us = us(run.call, last_setup);
  layers.join_us = us(last_exit, run.ret);
  layers.queue_high_water = static_cast<double>(report.stats.queue_high_water);
  if (mode.traced && report.trace) {
    analyze_trace(*report.trace, mode.profile, layers);
  }
  out.setup_s.push_back(layers.setup_us / 1e6);
  out.layers.push_back(layers);
  if (mode.time_lookups) out.lookup_ns.push_back(run.stamps.front().lookup_ns);
  out.messages += report.stats.messages;
  out.bytes += report.stats.payload_bytes;
  out.contexts += report.stats.contexts_allocated;
  return run;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Operations per job, in the workload's unit (round trips, batches per
  /// sender, cycles of five jobs, coupled intervals).
  [[nodiscard]] virtual std::uint64_t job_ops(bool quick) const = 0;
  /// Trace-ring capacity per rank for a traced job of `ops` operations.
  [[nodiscard]] virtual std::size_t ring_events(std::uint64_t ops) const = 0;
  /// Where each rank runs, for the output header.
  [[nodiscard]] virtual std::string placement() const = 0;
  /// Run one measured unit.
  virtual JobSample run(const JobMode& mode) = 0;
};

/// `pingpong_small` / `pingpong_large`: name-addressed ping-pong between two
/// single-rank components with one message in flight.  Ping sends a seeded
/// payload; pong adds 1 to its first and last words and echoes it back.
class PingPong final : public Workload {
 public:
  /// Per-round-trip split, kept while record_budget is on.
  /// One entry per timed round trip.  A hand-off runs from a send
  /// returning to the peer's receive returning.
  struct Budget {
    std::vector<double> send_fwd_us;  ///< ping's send
    std::vector<double> hand_fwd_us;  ///< ping's send returned → pong has it
    std::vector<double> send_back_us;
    std::vector<double> hand_back_us;
    std::vector<double> rt_us;
    std::uint64_t allocs = 0;
    std::uint64_t messages = 0;
  };

  PingPong(std::size_t bytes, int pong_slot, std::uint64_t seed)
      : words_(std::max<std::size_t>(1, bytes / sizeof(std::uint64_t))),
        pong_slot_(pong_slot),
        rng_(seed),
        ping_buf_(words_),
        pong_buf_(words_) {}

  [[nodiscard]] std::uint64_t job_ops(bool quick) const override {
    const std::uint64_t ops = words_ == 1 ? 5000 : 100;
    return quick ? ops / 10 : ops;
  }
  [[nodiscard]] std::size_t ring_events(std::uint64_t ops) const override {
    return 4 * ops + 4096;
  }
  [[nodiscard]] std::string placement() const override {
    Rng rng;
    return placement_of(layout(rng));
  }

  /// Stamp each round trip's send returns and pong's receive return, for
  /// the send / hand-off split (the --trace 1 probes).
  void record_budget() { budget_on_ = true; }
  [[nodiscard]] const Budget& budget() const { return budget_; }

  JobSample run(const JobMode& mode) override {
    JobSample sample;
    const std::uint64_t ops = mode.ops;
    const std::uint64_t warm = ops / 10;
    const std::uint64_t base = rng_();
    for (std::size_t k = 0; k < words_; ++k) ping_buf_[k] = pattern(base, k);
    rt_ns_.clear();
    rt_ns_.reserve(ops);
    first_ = last_ = 0;
    if (budget_on_) {
      for (auto* v : {&a0_, &a1_, &a2_, &b0_, &b1_, &b2_}) v->assign(ops, 0);
    }
    const Body body = [&](mph::Mph& h, int exec) {
      return exec == 0 ? ping(h, ops, base) : pong(h, ops);
    };
    run_job(layout(rng_), body, mode, ring_events(ops), sample);
    sample.ops = ops;
    if (mode.setup_only) return sample;
    if (rt_ns_.empty() || last_ <= first_) {
      ++sample.failed;
      return sample;
    }
    std::vector<double> rt(rt_ns_.begin(), rt_ns_.end());
    sample.latency_us = median(std::move(rt)) / 1e3;
    sample.ops_per_s = static_cast<double>(ops - warm) /
                       (static_cast<double>(last_ - first_) / 1e9);
    if (budget_on_) {
      const auto us = [](std::int64_t from, std::int64_t to) {
        return static_cast<double>(to - from) / 1e3;
      };
      for (std::uint64_t i = warm; i < ops; ++i) {
        budget_.send_fwd_us.push_back(us(a0_[i], a1_[i]));
        budget_.hand_fwd_us.push_back(us(a1_[i], b0_[i]));
        budget_.send_back_us.push_back(us(b1_[i], b2_[i]));
        budget_.hand_back_us.push_back(us(b2_[i], a2_[i]));
        budget_.rt_us.push_back(us(a0_[i], a2_[i]));
      }
      budget_.allocs += sample.body_allocs;
      budget_.messages += 2 * ops;
    }
    return sample;
  }

 private:
  [[nodiscard]] Layout layout(Rng& rng) const {
    Layout l;
    l.execs = {single("ping", 1), single("pong", 1)};
    l.registry = registry_text({{"", {"ping"}}, {"", {"pong"}}}, rng);
    l.expect = {{"ping", 0, 0}, {"pong", 1, 1}};
    l.cpu_slots = {0, pong_slot_};
    return l;
  }

  std::uint64_t ping(mph::Mph& h, std::uint64_t ops, std::uint64_t base) {
    std::vector<std::uint64_t>& buf = ping_buf_;
    const std::size_t last = words_ - 1;
    const std::uint64_t warm = ops / 10;
    std::uint64_t failed = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      buf[0] = base + i;
      if (last > 0) buf[last] = pattern(base, last);
      const std::int64_t t0 = now_ns();
      h.send(std::span<const std::uint64_t>(buf), "pong", 0, kTagPing);
      const std::int64_t t1 = budget_on_ ? now_ns() : 0;
      h.recv(std::span<std::uint64_t>(buf), "pong", 0, kTagPong);
      const std::int64_t t2 = now_ns();
      if (buf[0] != base + i + 1) ++failed;
      if (last > 0 && buf[last] != pattern(base, last) + 1) ++failed;
      if (last > 1) {
        const std::size_t k = 1 + (i * 7919) % (last - 1);
        if (buf[k] != pattern(base, k)) ++failed;
      }
      if (budget_on_) {
        a0_[i] = t0;
        a1_[i] = t1;
        a2_[i] = t2;
      }
      if (i >= warm) {
        if (i == warm) first_ = t0;
        last_ = t2;
        rt_ns_.push_back(t2 - t0);
      }
    }
    // Whole-payload comparison once per job, outside the timed loop.
    for (std::size_t k = 1; k < last; ++k) {
      if (buf[k] != pattern(base, k)) {
        ++failed;
        break;
      }
    }
    return failed;
  }

  std::uint64_t pong(mph::Mph& h, std::uint64_t ops) {
    std::vector<std::uint64_t>& buf = pong_buf_;
    const std::size_t last = words_ - 1;
    for (std::uint64_t i = 0; i < ops; ++i) {
      h.recv(std::span<std::uint64_t>(buf), "ping", 0, kTagPing);
      const std::int64_t t0 = budget_on_ ? now_ns() : 0;
      buf[0] += 1;
      if (last > 0) buf[last] += 1;
      const std::int64_t t1 = budget_on_ ? now_ns() : 0;
      h.send(std::span<const std::uint64_t>(buf), "ping", 0, kTagPong);
      if (budget_on_) {
        b0_[i] = t0;
        b1_[i] = t1;
        b2_[i] = now_ns();
      }
    }
    return 0;
  }

  std::size_t words_;
  int pong_slot_;
  Rng rng_;
  // Payload buffers live outside the rank bodies so that the bodies'
  // allocation count is the library's alone.
  std::vector<std::uint64_t> ping_buf_;
  std::vector<std::uint64_t> pong_buf_;
  std::vector<std::int64_t> rt_ns_;
  std::int64_t first_ = 0;
  std::int64_t last_ = 0;
  bool budget_on_ = false;
  std::vector<std::int64_t> a0_, a1_, a2_, b0_, b1_, b2_;
  Budget budget_;
};

/// `fanin`: three sender components stream batches of 8 messages with
/// seeded sizes to one receiver component, which receives with any_source,
/// checks each payload and the per-sender order, and acknowledges each
/// batch.
class FanIn final : public Workload {
 public:
  static constexpr int kSenders = 3;
  static constexpr std::size_t kMaxWords = 65536 / sizeof(std::uint64_t);

  explicit FanIn(std::uint64_t seed) : rng_(seed), recv_buf_(kMaxWords) {
    for (auto& buf : send_buf_) buf.assign(kMaxWords, 0);
  }

  [[nodiscard]] std::uint64_t job_ops(bool quick) const override {
    return quick ? 10 : 25;
  }
  [[nodiscard]] std::size_t ring_events(std::uint64_t ops) const override {
    return 4 * 9 * kSenders * ops + 4096;
  }
  [[nodiscard]] std::string placement() const override {
    Rng rng;
    return placement_of(layout(rng));
  }

  JobSample run(const JobMode& mode) override {
    JobSample sample;
    const std::uint64_t batches = mode.ops;
    const std::uint64_t base = rng_();
    for (int s = 0; s < kSenders; ++s) {
      std::vector<std::uint64_t>& buf = send_buf_[static_cast<std::size_t>(s)];
      for (std::size_t k = 0; k < kMaxWords; ++k) buf[k] = pattern(stream(base, s), k);
      buf[1] = static_cast<std::uint64_t>(s);
    }
    latency_ns_.clear();
    latency_ns_.reserve(kSenders * 8 * batches);
    t_warm_ = t_last_ = 0;
    const Body body = [&](mph::Mph& h, int exec) {
      return exec == 0 ? receive(h, batches, base)
                       : send(h, exec - 1, batches, base);
    };
    run_job(layout(rng_), body, mode, ring_events(batches), sample);
    const std::uint64_t total = kSenders * 8 * batches;
    sample.ops = total;
    if (mode.setup_only) return sample;
    if (latency_ns_.empty() || t_last_ <= t_warm_) {
      ++sample.failed;
      return sample;
    }
    std::vector<double> lat(latency_ns_.begin(), latency_ns_.end());
    sample.latency_us = median(std::move(lat)) / 1e3;
    sample.ops_per_s = static_cast<double>(latency_ns_.size()) /
                       (static_cast<double>(t_last_ - t_warm_) / 1e9);
    return sample;
  }

 private:
  /// Sizes of one batch in words: 3 × 64 B, 3 × 4 KiB, 2 × 64 KiB in a
  /// seeded order, so every seed moves the same bytes.
  static std::array<std::size_t, 8> batch_sizes(Rng& rng) {
    std::vector<std::size_t> words = {8, 8, 8, 512, 512, 512, 8192, 8192};
    shuffle(words, rng);
    std::array<std::size_t, 8> out{};
    std::copy(words.begin(), words.end(), out.begin());
    return out;
  }

  static std::uint64_t stream(std::uint64_t base, int sender) {
    return pattern(base, 1000 + static_cast<std::uint64_t>(sender));
  }

  [[nodiscard]] Layout layout(Rng& rng) const {
    Layout l;
    l.execs = {single("sink", 1)};
    std::vector<Block> blocks = {{"", {"sink"}}};
    l.expect = {{"sink", 0, 0}};
    l.cpu_slots = {0};
    for (int s = 0; s < kSenders; ++s) {
      const std::string& name = kSenderNames[static_cast<std::size_t>(s)];
      l.execs.push_back(single(name, 1));
      blocks.push_back({"", {name}});
      l.expect.push_back({name, s + 1, s + 1});
      l.cpu_slots.push_back(s + 1);
    }
    l.registry = registry_text(std::move(blocks), rng);
    return l;
  }

  std::uint64_t send(mph::Mph& h, int s, std::uint64_t batches,
                     std::uint64_t base) {
    std::vector<std::uint64_t>& buf = send_buf_[static_cast<std::size_t>(s)];
    Rng sizes(stream(base, s));
    std::uint64_t failed = 0;
    std::uint64_t seq = 0;
    for (std::uint64_t b = 0; b < batches; ++b) {
      for (const std::size_t words : batch_sizes(sizes)) {
        buf[0] = seq++;
        const std::int64_t t0 = now_ns();
        buf[2] = static_cast<std::uint64_t>(t0);
        h.send(std::span<const std::uint64_t>(buf.data(), words), "sink", 0,
               kTagData);
      }
      std::uint64_t ack = 0;
      h.recv(ack, "sink", 0, kTagAck);
      if (ack != b) ++failed;
    }
    return failed;
  }

  std::uint64_t receive(mph::Mph& h, std::uint64_t batches, std::uint64_t base) {
    struct Peer {
      Rng sizes;
      std::array<std::size_t, 8> batch{};
      std::uint64_t received = 0;
      std::uint64_t stream = 0;
      rank_t world = -1;
    };
    std::array<Peer, kSenders> peers;
    for (int s = 0; s < kSenders; ++s) {
      Peer& p = peers[static_cast<std::size_t>(s)];
      p.stream = stream(base, s);
      p.sizes = Rng(p.stream);
      p.world = h.global_rank_of(kSenderNames[static_cast<std::size_t>(s)], 0);
    }
    std::vector<std::uint64_t>& buf = recv_buf_;
    const std::uint64_t total = kSenders * 8 * batches;
    const std::uint64_t warm = total / 10;
    std::uint64_t failed = 0;
    t_warm_ = now_ns();
    for (std::uint64_t m = 0; m < total; ++m) {
      const minimpi::Status st = h.world().recv(
          std::span<std::uint64_t>(buf), minimpi::any_source, kTagData);
      const std::int64_t t = now_ns();
      std::size_t s = 0;
      while (s < peers.size() && peers[s].world != st.source) ++s;
      if (s == peers.size()) {
        ++failed;
        continue;
      }
      Peer& p = peers[s];
      const std::uint64_t k = p.received % 8;
      if (k == 0) p.batch = batch_sizes(p.sizes);
      const std::size_t words = st.bytes / sizeof(std::uint64_t);
      // Every batch size is at least 8 words, so a size match makes the
      // indexing below safe.
      if (words != p.batch[k] || buf[0] != p.received || buf[1] != s ||
          buf[3] != pattern(p.stream, 3) ||
          buf[words - 1] != pattern(p.stream, words - 1)) {
        ++failed;
      }
      ++p.received;
      if (m + 1 == warm) t_warm_ = t;
      if (m >= warm) {
        latency_ns_.push_back(t - static_cast<std::int64_t>(buf[2]));
        t_last_ = t;
      }
      if (k == 7) {
        const std::uint64_t batch = p.received / 8 - 1;
        h.send(batch, kSenderNames[s], 0, kTagAck);
      }
    }
    return failed;
  }

  static inline const std::array<std::string, kSenders> kSenderNames = {
      "src0", "src1", "src2"};

  Rng rng_;
  std::array<std::vector<std::uint64_t>, kSenders> send_buf_;
  std::vector<std::uint64_t> recv_buf_;
  std::vector<std::int64_t> latency_ns_;
  std::int64_t t_warm_ = 0;
  std::int64_t t_last_ = 0;
};

/// `handshake`: one unit is a cycle of five jobs — SCSE, SCME, MCSE, MCME
/// and MIME, four ranks each, in a seeded order — that set up, check their
/// directory, meet at the common-start barrier and exit.
class Handshake final : public Workload {
 public:
  static constexpr int kModes = 5;

  explicit Handshake(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::uint64_t job_ops(bool) const override { return 1; }
  [[nodiscard]] std::size_t ring_events(std::uint64_t) const override {
    return 4096;
  }
  [[nodiscard]] std::string placement() const override {
    Rng rng;
    std::string out;
    for (int m = 0; m < kModes; ++m) {
      out += std::string(out.empty() ? "" : "; ") + kModeNames[m] + " " +
             placement_of(layout(m, rng));
    }
    return out;
  }

  JobSample run(const JobMode& mode) override {
    JobSample sample;
    std::vector<double> wall_us;
    double wall_total_s = 0;
    for (std::uint64_t c = 0; c < mode.ops; ++c) {
      std::vector<int> order = {0, 1, 2, 3, 4};
      shuffle(order, rng_);
      for (const int m : order) {
        const JobRun run = run_job(
            layout(m, rng_), [](mph::Mph&, int) { return std::uint64_t{0}; },
            mode, ring_events(1), sample);
        wall_us.push_back(static_cast<double>(run.ret - run.call) / 1e3);
        wall_total_s += static_cast<double>(run.ret - run.call) / 1e9;
      }
    }
    sample.ops = kModes * mode.ops;
    sample.latency_us = median(wall_us);
    sample.ops_per_s = static_cast<double>(sample.ops) / wall_total_s;
    return sample;
  }

 private:
  static constexpr const char* kModeNames[kModes] = {"SCSE", "SCME", "MCSE",
                                                     "MCME", "MIME"};

  static Layout layout(int mode, Rng& rng) {
    Layout l;
    l.cpu_slots = {0, 1, 2, 3};
    std::vector<Block> blocks;
    switch (mode) {
      case 0:  // SCSE: one executable, one component
        l.execs = {single("solo", 4)};
        blocks = {{"", {"solo"}}};
        l.expect = {{"solo", 0, 3}};
        break;
      case 1:  // SCME: four single-component executables
        for (int c = 0; c < 4; ++c) {
          const std::string name = "c" + std::to_string(c);
          l.execs.push_back(single(name, 1));
          blocks.push_back({"", {name}});
          l.expect.push_back({name, c, c});
        }
        break;
      case 2:  // MCSE: one executable, two components of two ranks
        l.execs = {components("multi", 4, {"alpha", "beta"})};
        blocks = {{"Multi_Component", {"alpha 0 1", "beta 2 3"}}};
        l.expect = {{"alpha", 0, 1}, {"beta", 2, 3}};
        break;
      case 3:  // MCME: two executables of two single-rank components
        for (int e = 0; e < 2; ++e) {
          const std::string a = "a" + std::to_string(e);
          const std::string b = "b" + std::to_string(e);
          l.execs.push_back(components("mc" + std::to_string(e), 2, {a, b}));
          blocks.push_back({"Multi_Component", {a + " 0 0", b + " 1 1"}});
          l.expect.push_back({a, 2 * e, 2 * e});
          l.expect.push_back({b, 2 * e + 1, 2 * e + 1});
        }
        break;
      default:  // MIME: three ensemble instances plus a statistics component
        l.execs = {Layout::Exec{"ocean", 3, mph::LocalDeclaration{true, {"Ocean"}}},
                   single("statistics", 1)};
        blocks = {{"Multi_Instance", {"Ocean1 0 0", "Ocean2 1 1", "Ocean3 2 2"}},
                  {"", {"statistics"}}};
        l.expect = {{"Ocean1", 0, 0}, {"Ocean2", 1, 1}, {"Ocean3", 2, 2},
                    {"statistics", 3, 3}};
        break;
    }
    l.registry = registry_text(std::move(blocks), rng);
    return l;
  }

  Rng rng_;
};

/// `ccsm`: the five-component coupled climate model, SCME wiring with one
/// rank per component.  The coupler's diagnostics must equal the serial
/// reference bit for bit.
class Ccsm final : public Workload {
 public:
  static constexpr int kIntervals = 16;

  explicit Ccsm(std::uint64_t seed) : rng_(seed) {
    cfg_.atm_nlon = 96;
    cfg_.atm_nlat = 48;
    cfg_.ocn_nlon = 144;
    cfg_.ocn_nlat = 72;
    cfg_.steps_per_interval = 4;
    cfg_.intervals = kIntervals;
    const minimpi::JobReport report = minimpi::run_spmd(
        1, [&](const Comm& world, const minimpi::ExecEnv&) {
          reference_ = mph::climate::run_serial_reference(world, cfg_);
        });
    if (!report.ok) {
      throw std::runtime_error("serial reference failed: " +
                               report.abort_reason);
    }
  }

  [[nodiscard]] std::uint64_t job_ops(bool quick) const override {
    return quick ? 4 : kIntervals;
  }
  [[nodiscard]] std::size_t ring_events(std::uint64_t ops) const override {
    return 256 * ops + 4096;
  }
  [[nodiscard]] std::string placement() const override {
    Rng rng;
    return placement_of(layout(rng));
  }

  JobSample run(const JobMode& mode) override {
    if (mode.ops > kIntervals) {
      throw std::runtime_error("ccsm: more intervals than the reference has");
    }
    JobSample sample;
    mph::climate::ClimateConfig cfg = cfg_;
    cfg.intervals = static_cast<int>(mode.ops);
    const Body body = [&](mph::Mph& h, int) {
      const mph::climate::ComponentResult r =
          mph::climate::run_coupled_component(h, cfg);
      if (r.component != "coupler" || h.local_proc_id() != 0) {
        return std::uint64_t{0};
      }
      return mismatches(r.coupler, mode.ops);
    };
    const JobRun run = run_job(layout(rng_), body, mode, ring_events(mode.ops),
                               sample);
    sample.ops = mode.ops;
    if (mode.setup_only) return sample;
    std::int64_t start = run.stamps.front().start;
    std::int64_t end = 0;
    for (const RankStamps& st : run.stamps) {
      start = std::min(start, st.start);
      end = std::max(end, st.end);
    }
    const double seconds = static_cast<double>(end - start) / 1e9;
    sample.latency_us = seconds * 1e6 / static_cast<double>(mode.ops);
    sample.ops_per_s = static_cast<double>(mode.ops) / seconds;
    return sample;
  }

 private:
  [[nodiscard]] static Layout layout(Rng& rng) {
    // Rank r runs on CPU r mod nproc: with four CPUs only land, the
    // cheapest model, shares a CPU with the coupler.
    Layout l;
    std::vector<Block> blocks;
    int r = 0;
    for (const char* name : {"coupler", "atmosphere", "ocean", "ice", "land"}) {
      l.execs.push_back(single(name, 1));
      blocks.push_back({"", {name}});
      l.expect.push_back({name, r, r});
      l.cpu_slots.push_back(r++);
    }
    l.registry = registry_text(std::move(blocks), rng);
    return l;
  }

  /// Series (out of four) whose first `n` values differ bitwise from the
  /// serial reference.
  [[nodiscard]] std::uint64_t mismatches(
      const mph::climate::CouplerDiagnostics& d, std::uint64_t n) const {
    std::uint64_t bad = 0;
    const auto differs = [n](const std::vector<double>& a,
                             const std::vector<double>& b) {
      return a.size() < n || b.size() < n ||
             std::memcmp(a.data(), b.data(), n * sizeof(double)) != 0;
    };
    bad += differs(d.mean_t_atm, reference_.mean_t_atm);
    bad += differs(d.mean_sst, reference_.mean_sst);
    bad += differs(d.mean_evap, reference_.mean_evap);
    bad += differs(d.mean_icefrac, reference_.mean_icefrac);
    return bad;
  }

  Rng rng_;
  mph::climate::ClimateConfig cfg_;
  mph::climate::CouplerDiagnostics reference_;
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "pingpong_small") return std::make_unique<PingPong>(8, 0, seed);
  if (name == "pingpong_large") {
    return std::make_unique<PingPong>(std::size_t{1} << 20, 1, seed);
  }
  if (name == "fanin") return std::make_unique<FanIn>(seed);
  if (name == "handshake") return std::make_unique<Handshake>(seed);
  if (name == "ccsm") return std::make_unique<Ccsm>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Phases and metrics
// ---------------------------------------------------------------------------

/// Every unit run for `seconds` after one warm-up unit.
struct Phase {
  Samples setup_s{1 << 18};
  Samples latency_us{1 << 16};
  Samples ops_per_s{1 << 16};
  std::vector<JobLayers> layers;  ///< kept only when keep_layers
  std::uint64_t units = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const JobSample& s) {
    attempted += s.ops;
    failed += s.failed;
  }
};

constexpr std::size_t kProfiledUnits = 3;

Phase run_phase(Workload& w, JobMode mode, double seconds, bool keep_layers,
                Tally& tally) {
  Phase phase;
  tally.add(w.run(mode));  // warm-up unit, not timed
  const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    JobMode m = mode;
    m.profile = mode.traced && phase.units < kProfiledUnits;
    const JobSample s = w.run(m);
    tally.add(s);
    ++phase.units;
    phase.ops += s.ops;
    phase.allocs += s.allocs;
    for (const double x : s.setup_s) phase.setup_s.add(x);
    phase.latency_us.add(s.latency_us);
    phase.ops_per_s.add(s.ops_per_s);
    if (keep_layers) {
      phase.layers.insert(phase.layers.end(), s.layers.begin(), s.layers.end());
    }
  } while (now_ns() < deadline && !phase.setup_s.full() &&
           !phase.latency_us.full());
  return phase;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};

/// Median of one JobLayers field over the jobs where `use` holds.
template <class Field, class Use>
std::pair<double, std::size_t> layer_median(const std::vector<JobLayers>& layers,
                                            Field field, Use use) {
  std::vector<double> v;
  for (const JobLayers& l : layers) {
    if (use(l)) v.push_back(field(l));
  }
  return {v.empty() ? 0.0 : median(v), v.size()};
}

std::string number(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// This process's resident-set high-water mark (VmHWM).  Not getrusage's
/// ru_maxrss: that survives exec and so reports the launching process's
/// peak whenever the launcher was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Handshake counts of an SCME job of `n` single-rank components; the
/// ranks oversubscribe the CPUs, so only counts are taken.
JobSample scme_counts(int n, Tally& tally) {
  Layout l;
  std::vector<Block> blocks;
  for (int c = 0; c < n; ++c) {
    const std::string name = "c" + std::to_string(c);
    l.execs.push_back(single(name, 1));
    blocks.push_back({"", {name}});
    l.expect.push_back({name, c, c});
  }
  Rng rng(static_cast<std::uint64_t>(n));
  l.registry = registry_text(std::move(blocks), rng);
  JobSample sample;
  JobMode mode;
  mode.setup_only = true;
  run_job(l, Body{}, mode, 0, sample);
  sample.ops = 1;
  tally.add(sample);
  return sample;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool traced = false;
  bool quick = false;
};

/// One line on how a per-unit value is spread over the run: its median, the
/// tail on the slow side (high for a time, low for a rate) and the fastest
/// 1%, with the sample count.  Reported, not gated.
void print_spread(const char* name, const Samples& s, bool rate) {
  const std::vector<double> v = s.values();
  const double q = reported_tail(v.size());
  const auto pct = [](double x) { return static_cast<int>(x * 100 + 0.5); };
  std::printf("%s over %zu units: median %.6g, slow tail p%d %.6g, fast p%d %.6g\n",
              name, v.size(), median(v), pct(rate ? 1 - q : q),
              quantile(v, rate ? 1 - q : q), rate ? 99 : 1,
              quantile(v, rate ? 0.99 : 0.01));
}

std::vector<Metric> end_to_end(Workload& w, const Options& opt, Tally& tally) {
  JobMode mode;
  mode.ops = w.job_ops(opt.quick);
  const Phase p = run_phase(w, mode, opt.seconds, false, tally);
  std::printf("units: %llu timed after 1 warm-up; %llu ops run\n",
              static_cast<unsigned long long>(p.units),
              static_cast<unsigned long long>(p.ops));
  print_spread("latency_us", p.latency_us, false);
  print_spread("ops_per_s", p.ops_per_s, true);
  return {
      {"setup_s", "s", median(p.setup_s.values()), p.setup_s.size()},
      {"latency_us", "us", fast_tail(p.latency_us.values()), p.latency_us.size()},
      {"ops_per_s", "1/s", fast_tail(p.ops_per_s.values(), true), p.ops_per_s.size()},
      {"peak_rss_mb", "MiB", peak_rss_mb(), 1},
  };
}

std::vector<Metric> per_layer(Workload& w, const Options& opt, Tally& tally) {
  std::vector<Metric> out;
  const auto add = [&](std::string name, std::string unit,
                       std::pair<double, std::size_t> v) {
    out.push_back({std::move(name), std::move(unit), v.first, v.second});
  };
  const auto all = [](const JobLayers&) { return true; };
  const auto traced = [](const JobLayers& l) { return l.traced; };
  const auto profiled = [](const JobLayers& l) { return l.profiled; };

  JobMode mode;
  mode.ops = w.job_ops(opt.quick);
  const Phase u = run_phase(w, mode, 0.4 * opt.seconds, true, tally);
  mode.traced = true;
  const Phase t = run_phase(w, mode, 0.4 * opt.seconds, true, tally);
  std::printf("units: %llu untraced, %llu traced, each after 1 warm-up\n",
              static_cast<unsigned long long>(u.units),
              static_cast<unsigned long long>(t.units));

  // Bench-side spans around the layers' public calls, from untraced jobs.
  add("launcher.launch_us", "us",
      layer_median(u.layers, [](const JobLayers& l) { return l.launch_us; }, all));
  add("launcher.join_us", "us",
      layer_median(u.layers, [](const JobLayers& l) { return l.join_us; }, all));
  add("registry.resolve_us", "us",
      layer_median(u.layers, [](const JobLayers& l) { return l.resolve_us; }, all));
  add("handshake.call_us", "us",
      layer_median(u.layers, [](const JobLayers& l) { return l.call_us; }, all));
  // The library's own spans, from traced jobs.
  add("handshake.allgather_us", "us",
      layer_median(t.layers, [](const JobLayers& l) { return l.allgather_us; }, traced));
  add("handshake.layout_us", "us",
      layer_median(t.layers, [](const JobLayers& l) { return l.layout_us; }, traced));
  add("handshake.comm_setup_us", "us",
      layer_median(t.layers, [](const JobLayers& l) { return l.comm_setup_us; }, traced));

  // Exact counts: setup-only jobs, and jobs of n and 2n operations.
  JobMode setup;
  setup.ops = w.job_ops(opt.quick);
  setup.setup_only = true;
  setup.time_lookups = true;
  const JobSample hs = w.run(setup);
  tally.add(hs);
  add("handshake.msgs", "count", {static_cast<double>(hs.messages), 1});
  add("handshake.bytes", "B", {static_cast<double>(hs.bytes), 1});
  add("handshake.contexts", "count", {static_cast<double>(hs.contexts), 1});
  for (const int n : {16, 64, 128}) {
    const JobSample wide = scme_counts(n, tally);
    add("handshake.msgs_c" + std::to_string(n), "count",
        {static_cast<double>(wide.messages), 1});
    if (n == 128) {
      add("handshake.bytes_c128", "B", {static_cast<double>(wide.bytes), 1});
    }
  }
  add("directory.lookup_ns", "ns", {median(hs.lookup_ns), hs.lookup_ns.size()});

  JobMode counted;
  counted.ops = w.job_ops(true);
  const JobSample one = w.run(counted);
  counted.ops *= 2;
  const JobSample two = w.run(counted);
  tally.add(one);
  tally.add(two);
  const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
    return std::pair<double, std::size_t>{
        static_cast<double>(b - a) / static_cast<double>(two.ops - one.ops), 2};
  };
  add("comm.msgs_per_op", "count", per_op(one.messages, two.messages));
  add("comm.bytes_per_op", "B", per_op(one.bytes, two.bytes));
  add("alloc.per_op", "count",
      {static_cast<double>(u.allocs) / static_cast<double>(u.ops), u.units});
  add("comm.queue_high_water", "count",
      layer_median(u.layers, [](const JobLayers& l) { return l.queue_high_water; }, all));

  // Name-addressed ping-pong probes: the point-to-point layer budget.
  const std::uint64_t probe_seed = opt.seed ^ 0x5eedULL;
  const auto probe = [&](std::size_t bytes, int pong_slot) {
    PingPong pp(bytes, pong_slot, probe_seed);
    JobMode m;
    m.ops = pp.job_ops(opt.quick);
    tally.add(pp.run(m));  // warm-up, not recorded
    pp.record_budget();
    for (int i = 0; i < (opt.quick ? 1 : 3); ++i) tally.add(pp.run(m));
    return pp.budget();
  };
  const PingPong::Budget small = probe(8, 0);
  const PingPong::Budget large = probe(std::size_t{1} << 20, 1);
  // Single calls, both directions pooled.
  const auto both = [](const std::vector<double>& a, const std::vector<double>& b) {
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  const auto sends = [&](const PingPong::Budget& b) {
    return both(b.send_fwd_us, b.send_back_us);
  };
  const auto handoffs = [&](const PingPong::Budget& b) {
    return both(b.hand_fwd_us, b.hand_back_us);
  };
  const auto allocs_per_msg = [](const PingPong::Budget& b) {
    return static_cast<double>(b.allocs) / static_cast<double>(b.messages);
  };
  const double rt_small = median(small.rt_us);
  const double rt_large = median(large.rt_us);
  const std::size_t n_small = small.rt_us.size();
  const std::size_t n_large = large.rt_us.size();
  add("comm.send_us_8B", "us", {median(sends(small)), 2 * n_small});
  add("comm.handoff_us_8B", "us", {median(handoffs(small)), 2 * n_small});
  add("comm.rt_us_8B", "us", {rt_small, n_small});
  add("comm.rt_p99_us_8B", "us", {quantile(small.rt_us, 0.99), n_small});
  add("comm.allocs_per_msg_8B", "count", {allocs_per_msg(small), n_small});
  add("comm.send_us_1MiB", "us", {median(sends(large)), 2 * n_large});
  add("comm.handoff_us_1MiB", "us", {median(handoffs(large)), 2 * n_large});
  add("comm.rt_us_1MiB", "us", {rt_large, n_large});
  add("comm.allocs_per_msg_1MiB", "count", {allocs_per_msg(large), n_large});
  // Roofline for the copies: one memcpy of the 1 MiB payload.
  std::vector<std::byte> src(std::size_t{1} << 20, std::byte{1});
  std::vector<std::byte> dst(src.size(), std::byte{0});
  std::vector<double> copy_us;
  for (int i = 0; i < 201; ++i) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), src.size());
    copy_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    src[static_cast<std::size_t>(i)] = dst[static_cast<std::size_t>(i) + 1];
  }
  const double memcpy_us = median(copy_us);
  add("comm.memcpy_us_1MiB", "us", {memcpy_us, copy_us.size()});
  add("comm.copy_equiv_1MiB", "ratio",
      {(rt_large - rt_small) / 2 / memcpy_us, large.rt_us.size()});

  // Shares of wall and of the critical path, from traced jobs.
  add("comm.wait_share", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.wait_share; }, traced));
  add("coll.wait_share", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.coll_share; }, traced));
  add("rank.busy_share_min", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.busy_min; }, traced));
  add("prof.compute_share", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.prof_compute; }, profiled));
  add("prof.wait_share", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.prof_wait; }, profiled));
  add("prof.handshake_share", "ratio",
      layer_median(t.layers, [](const JobLayers& l) { return l.prof_handshake; }, profiled));
  const double traced_ops = fast_tail(t.ops_per_s.values(), true);
  const double untraced_ops = fast_tail(u.ops_per_s.values(), true);
  add("traced.latency_us", "us", {fast_tail(t.latency_us.values()), t.latency_us.size()});
  add("trace_overhead", "ratio", {traced_ops / untraced_ops, t.ops_per_s.size()});

  // Budget lines: per direction, and do the parts add up to the whole?
  for (const auto& [label, b] : {std::pair<const char*, const PingPong::Budget&>{"8B", small},
                                 {"1MiB", large}}) {
    std::vector<double> parts_us(b.rt_us.size());
    for (std::size_t i = 0; i < parts_us.size(); ++i) {
      parts_us[i] = b.send_fwd_us[i] + b.hand_fwd_us[i] + b.send_back_us[i] +
                    b.hand_back_us[i];
    }
    const double parts = median(parts_us);
    const double rt = median(b.rt_us);
    std::printf("budget %s: ping->pong send %.3f handoff %.3f, pong->ping send %.3f "
                "handoff %.3f; both ways %.3f us vs round trip %.3f us (%.3f)\n",
                label, median(b.send_fwd_us), median(b.hand_fwd_us),
                median(b.send_back_us), median(b.hand_back_us), parts, rt, parts / rt);
  }
  std::uint64_t dropped = 0;
  for (const JobLayers& l : t.layers) dropped += l.dropped;
  if (dropped > 0) {
    std::printf("warning: trace rings dropped %llu events\n",
                static_cast<unsigned long long>(dropped));
  }
  const double overhead = traced_ops / untraced_ops;
  if (overhead < 0.95 || overhead > 1.10) {
    std::printf("warning: trace_overhead %.3f outside [0.95, 1.10]\n", overhead);
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mph_bench: %s\nusage: mph_bench --workload "
               "pingpong_small|pingpong_large|fanin|handshake|ccsm "
               "[--seed N] [--seconds S] [--trace 0|1] [--quick]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(std::string(value()));
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(std::string(value()));
        seconds_set = true;
      } else if (arg == "--trace") {
        const std::string_view v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.traced = v == "1";
      } else if (arg == "--quick") {
        opt.quick = true;
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds < 0 || opt.seconds > 60) usage("--seconds must be in [0, 60]");
  if (opt.quick && !seconds_set) opt.seconds = 0.1;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::size_t nproc = allowed_cpus().size();
  std::printf("mph_bench workload=%s seed=%llu seconds=%g trace=%d quick=%d "
              "build=%s nproc=%zu cpu=\"%s\"\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced ? 1 : 0, opt.quick ? 1 : 0,
              MPH_BENCH_BUILD_TYPE, nproc, cpu_model().c_str());
  Tally tally;
  std::vector<Metric> metrics;
  try {
    const std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
    if (!w) usage("unknown workload");
    std::printf("placement: %s\n", w->placement().c_str());
    metrics = opt.traced ? per_layer(*w, opt, tally) : end_to_end(*w, opt, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mph_bench: %s\n", e.what());
    return 1;
  }
  std::printf("%-28s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("checks: %llu failed of %llu operations\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
