#include "src/minimpi/check.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/minimpi/job.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/strings.hpp"

namespace minimpi {

// ---------------------------------------------------------------------------
// CheckOptions
// ---------------------------------------------------------------------------

CheckOptions CheckOptions::all() noexcept {
  CheckOptions o;
  o.deadlock = o.type_matching = o.collectives = o.leaks = true;
  return o;
}

void CheckOptions::apply(std::string_view text) noexcept {
  for (const auto& [key, value] : mph::util::option_tokens(text)) {
    if (value) continue;  // every MINIMPI_CHECK token is a bare flag
    if (key == "all" || key == "1") {
      deadlock = type_matching = collectives = leaks = true;
    }
    if (key == "deadlock") deadlock = true;
    if (key == "types") type_matching = true;
    if (key == "collectives") collectives = true;
    if (key == "leaks") leaks = true;
  }
}

CheckOptions CheckOptions::parse(std::string_view text) noexcept {
  CheckOptions o;
  o.apply(text);
  return o;
}

CheckOptions CheckOptions::merged_with_env() const noexcept {
  return mph::util::apply_env_options(*this, "MINIMPI_CHECK");
}

// ---------------------------------------------------------------------------
// CheckReport
// ---------------------------------------------------------------------------

std::string CheckReport::RankLeak::to_string() const {
  std::ostringstream out;
  out << "rank " << world_rank;
  if (!component.empty()) out << " (" << component << ")";
  out << ": " << envelopes << " unreceived envelope(s), " << posted_recvs
      << " unmatched posted receive(s), " << outstanding_requests
      << " outstanding request(s), " << live_comms << " live communicator(s)";
  return out.str();
}

std::string CheckReport::to_string() const {
  if (clean()) return "check: clean";
  std::ostringstream out;
  out << "check report:";
  for (const std::string& d : deadlocks) out << "\n  deadlock: " << d;
  for (const std::string& t : type_mismatches) {
    out << "\n  type mismatch: " << t;
  }
  for (const std::string& c : collective_mismatches) {
    out << "\n  collective mismatch: " << c;
  }
  for (const RankLeak& l : leaks) out << "\n  leak: " << l.to_string();
  return out.str();
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

Checker::Checker(CheckOptions options, int world_size)
    : options_(options),
      world_size_(world_size),
      edges_(static_cast<std::size_t>(world_size)),
      epochs_(new mph::atomic<std::uint64_t>[world_size]),
      live_comms_(new mph::atomic<std::int64_t>[world_size]),
      outstanding_requests_(new mph::atomic<std::int64_t>[world_size]),
      leaked_envelopes_(new mph::atomic<std::uint64_t>[world_size]),
      leaked_posted_(new mph::atomic<std::uint64_t>[world_size]) {
  for (int r = 0; r < world_size; ++r) {
    epochs_[r].store(0, std::memory_order_relaxed);
    live_comms_[r].store(0, std::memory_order_relaxed);
    outstanding_requests_[r].store(0, std::memory_order_relaxed);
    leaked_envelopes_[r].store(0, std::memory_order_relaxed);
    leaked_posted_[r].store(0, std::memory_order_relaxed);
  }
}

Checker::~Checker() { stop(); }

void Checker::bind(Job* job) {
  job_ = job;
  if (options_.deadlock && options_.watch_interval.count() > 0) {
    watcher_ = std::thread([this] { watch_loop(); });
  }
}

void Checker::stop() {
  {
    const std::lock_guard<std::mutex> lock(watcher_mutex_);
    stopping_ = true;
  }
  watcher_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

// --- wait-for graph ---------------------------------------------------------

void Checker::envelope_delivered(rank_t owner, const Envelope& env) {
  if (!options_.deadlock) return;
  if (owner >= 0 && owner < world_size_) {
    epochs_[owner].fetch_add(1, std::memory_order_release);
  }
  if (env.src < 0 || env.src >= world_size_) return;
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  BlockedEdge& edge = edges_[static_cast<std::size_t>(env.src)];
  // A sender is visibly making progress; whatever it was spin-probing for,
  // it is not stuck in that loop *now*.  Hard (blocking) edges are immune:
  // a blocked rank cannot be sending.
  if (edge.active && edge.soft) edge.active = false;
}

void Checker::wait_blocked(rank_t owner, const BlockedWait& wait) {
  if (!options_.deadlock) return;
  if (owner < 0 || owner >= world_size_) return;
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  BlockedEdge& edge = edges_[static_cast<std::size_t>(owner)];
  edge.active = true;
  edge.waits_on = wait.waits_on;
  edge.op = wait.label;
  edge.context = wait.context;
  edge.tag = wait.tag;
  edge.seen_epoch = epochs_[owner].load(std::memory_order_acquire);
  edge.soft = false;
  edge.spins = 0;
}

void Checker::wait_unblocked(rank_t owner, const BlockedWait& /*wait*/,
                             std::uint64_t /*t1_ns*/) {
  if (!options_.deadlock) return;
  if (owner < 0 || owner >= world_size_) return;
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  edges_[static_cast<std::size_t>(owner)].active = false;
}

void Checker::poll_missed(rank_t owner, rank_t source, const char* op,
                          context_t ctx, tag_t tag) {
  if (!options_.deadlock) return;
  if (owner < 0 || owner >= world_size_) return;
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  BlockedEdge& edge = edges_[static_cast<std::size_t>(owner)];
  const bool same_pattern = edge.active && edge.soft &&
                            edge.waits_on == source && edge.context == ctx &&
                            edge.tag == tag && std::string_view(edge.op) == op;
  if (same_pattern) {
    edge.spins += 1;
  } else {
    edge.active = true;
    edge.soft = true;
    edge.waits_on = source;
    edge.op = op;
    edge.context = ctx;
    edge.tag = tag;
    edge.spins = 1;
  }
  // Same critical section as the failed match check (the caller holds the
  // owner's mailbox mutex), so the epoch-confirmation argument for hard
  // edges carries over to soft ones.
  edge.seen_epoch = epochs_[owner].load(std::memory_order_acquire);
  edge.last_spin = std::chrono::steady_clock::now();
}

void Checker::poll_hit(rank_t owner) {
  if (!options_.deadlock) return;
  if (owner < 0 || owner >= world_size_) return;
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  BlockedEdge& edge = edges_[static_cast<std::size_t>(owner)];
  if (edge.active && edge.soft) edge.active = false;
}

std::vector<rank_t> Checker::find_cycle_locked(rank_t start) const {
  // The wait-for graph is functional (each rank is one thread, so at most
  // one blocked wait and one out-edge per rank): cycle detection is a chain
  // walk, bounded by world_size_ hops.  Only definite-source edges
  // participate — an any_source waiter could be satisfied by anyone, so it
  // can never be *proved* deadlocked.
  std::vector<rank_t> chain;
  rank_t current = start;
  const auto now = std::chrono::steady_clock::now();
  const auto soft_staleness_bound =
      std::max(std::chrono::milliseconds(100), 4 * options_.watch_interval);
  for (int hop = 0; hop <= world_size_; ++hop) {
    const BlockedEdge& edge = edges_[static_cast<std::size_t>(current)];
    if (!edge.active || edge.waits_on == any_source) return {};
    if (edge.waits_on < 0 || edge.waits_on >= world_size_) return {};
    // Epoch confirmation: the waiter must have examined every delivery made
    // to it so far.  Otherwise a matching envelope may already be in its
    // queue and the "cycle" would resolve itself.
    if (edge.seen_epoch !=
        epochs_[current].load(std::memory_order_acquire)) {
      return {};
    }
    // Soft (iprobe/test spin) edges prove far less than blocking ones: the
    // rank is free to do something else after a miss.  Accept one only when
    // it has missed the identical pattern at least twice (a spin loop, not
    // a glance) and missed *recently* — a rank that wandered off to compute
    // may be about to send, which would break the "cycle".
    if (edge.soft &&
        (edge.spins < 2 || now - edge.last_spin > soft_staleness_bound)) {
      return {};
    }
    chain.push_back(current);
    const rank_t next = edge.waits_on;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] == next) {
        // Cycle = chain[i..end].  It contains `start` only when i == 0, but
        // any confirmed cycle reachable from `start` still blocks `start`
        // forever, so report it either way.
        return {chain.begin() + static_cast<std::ptrdiff_t>(i), chain.end()};
      }
    }
    current = next;
  }
  return {};
}

std::string Checker::label_of(rank_t world_rank) const {
  if (job_ == nullptr) return {};
  return job_->rank_label(world_rank);
}

std::string Checker::describe_edge(rank_t waiter,
                                   const BlockedEdge& edge) const {
  const auto name = [&](rank_t r) {
    const std::string label = label_of(r);
    std::string out = label.empty() ? "rank" : label;
    out += "[" + std::to_string(r) + "]";
    return out;
  };
  std::ostringstream out;
  out << name(waiter) << " " << edge.op << "<-" << name(edge.waits_on)
      << " (context=" << edge.context << ", tag=";
  if (edge.tag == any_tag) {
    out << "*";
  } else {
    out << edge.tag;
  }
  out << ")";
  if (edge.soft) out << " [spinning, " << edge.spins << " misses]";
  return out.str();
}

std::string Checker::format_cycle(const std::vector<rank_t>& cycle,
                                  const std::vector<BlockedEdge>& edges) const {
  std::ostringstream out;
  out << "wait-for cycle across " << cycle.size() << " rank(s): ";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i != 0) out << " ; ";
    out << describe_edge(cycle[i],
                         edges[static_cast<std::size_t>(cycle[i])]);
  }
  return out.str();
}

void Checker::wait_timed_out(rank_t owner) {
  if (!options_.deadlock) return;
  if (owner < 0 || owner >= world_size_) return;
  std::vector<rank_t> cycle;
  std::vector<BlockedEdge> snapshot;
  {
    const std::lock_guard<std::mutex> lock(graph_mutex_);
    cycle = find_cycle_locked(owner);
    if (cycle.empty()) return;
    snapshot = edges_;
  }
  // Format outside graph_mutex_: label_of takes the job's label lock.
  std::string text = format_cycle(cycle, snapshot);
  {
    const std::lock_guard<std::mutex> lock(report_mutex_);
    deadlocks_.push_back(text);
  }
  throw DeadlockError(text);
}

void Checker::watch_loop() {
  mph::util::set_thread_label("mpicheck watcher");
  std::unique_lock<std::mutex> watcher_lock(watcher_mutex_);
  while (!stopping_) {
    watcher_cv_.wait_for(watcher_lock, options_.watch_interval);
    if (stopping_) return;
    if (job_ == nullptr || job_->aborted()) continue;

    std::vector<rank_t> cycle;
    std::vector<BlockedEdge> snapshot;
    {
      const std::lock_guard<std::mutex> lock(graph_mutex_);
      for (rank_t r = 0; r < world_size_ && cycle.empty(); ++r) {
        if (edges_[static_cast<std::size_t>(r)].active) {
          cycle = find_cycle_locked(r);
        }
      }
      if (!cycle.empty()) snapshot = edges_;
    }
    if (cycle.empty()) continue;

    const std::string text = format_cycle(cycle, snapshot);
    {
      const std::lock_guard<std::mutex> lock(report_mutex_);
      deadlocks_.push_back(text);
    }
    MPH_DIAG_LOG(error) << "mpicheck: " << text;
    const rank_t culprit = cycle.front();
    job_->abort(AbortInfo{culprit, label_of(culprit), "deadlock", text});
    // The abort wakes every blocked rank; members unwind with AbortedError
    // and the job tears down.  Keep running (idle) until stop() so late
    // blockers still observe the abort flag through their own waits.
  }
}

// --- type matching ----------------------------------------------------------

std::exception_ptr Checker::envelope_matched(rank_t owner, const Envelope& env,
                                             const TypeSig& expected,
                                             std::size_t capacity,
                                             bool /*posted*/) {
  if (!options_.type_matching) return nullptr;
  // Raw/control traffic carries no signature; only verify when both the
  // send and the receive were typed.
  if (!env.sig.present() || !expected.present()) return nullptr;
  if (env.sig.matches(expected)) return nullptr;
  const auto side = [&](rank_t r, const TypeSig& sig, std::size_t bytes) {
    const std::string label = label_of(r);
    std::ostringstream out;
    if (!label.empty()) out << label;
    out << "[" << r << "] " << sig.name << " x"
        << (sig.size != 0 ? bytes / sig.size : 0) << " (" << bytes
        << " bytes)";
    return out.str();
  };
  std::ostringstream out;
  out << "send/recv element types disagree on (context=" << env.context
      << ", tag=" << env.tag << "): sender "
      << side(env.src, env.sig, env.payload.size()) << " vs receiver "
      << side(owner, expected, capacity);
  std::string text = out.str();
  {
    const std::lock_guard<std::mutex> lock(report_mutex_);
    type_mismatches_.push_back(text);
  }
  return std::make_exception_ptr(TypeMismatchError(text));
}

// --- collective consistency -------------------------------------------------

void Checker::on_collective(context_t ctx, rank_t group_leader,
                            std::uint32_t seq, const char* op, rank_t root,
                            std::uint64_t count, std::uint32_t elem_size,
                            int comm_size, rank_t reporter) {
  if (!options_.collectives) return;
  std::string text;
  {
    const std::lock_guard<std::mutex> lock(coll_mutex_);
    const auto key = std::make_tuple(ctx, group_leader, seq);
    auto [it, inserted] = collectives_.try_emplace(
        key,
        CollectiveRecord{op, root, count, elem_size, comm_size, reporter, 0});
    CollectiveRecord& rec = it->second;
    if (!inserted) {
      const bool count_ok = rec.count == kUncheckedCount ||
                            count == kUncheckedCount || rec.count == count;
      if (std::string_view(rec.op) != op || rec.root != root || !count_ok ||
          rec.elem_size != elem_size) {
        std::ostringstream out;
        out << "collective #" << seq << " on context " << ctx
            << " diverges: " << label_of(rec.first_reporter) << "["
            << rec.first_reporter << "] called " << rec.op
            << "(root=" << rec.root;
        if (rec.count != kUncheckedCount) out << ", count=" << rec.count;
        out << ", elem=" << rec.elem_size << "B) but " << label_of(reporter)
            << "[" << reporter << "] called " << op << "(root=" << root;
        if (count != kUncheckedCount) out << ", count=" << count;
        out << ", elem=" << elem_size << "B)";
        text = out.str();
      }
    }
    if (text.empty()) {
      rec.arrived += 1;
      if (rec.arrived >= rec.comm_size) collectives_.erase(it);
    }
  }
  if (!text.empty()) {
    {
      const std::lock_guard<std::mutex> lock(report_mutex_);
      collective_mismatches_.push_back(text);
    }
    throw CollectiveMismatchError(text);
  }
}

// --- resource-leak audit -----------------------------------------------------

void Checker::note_comm_created(rank_t world_rank) noexcept {
  if (!options_.leaks) return;
  if (world_rank < 0 || world_rank >= world_size_) return;
  live_comms_[world_rank].fetch_add(1, std::memory_order_relaxed);
}

void Checker::note_comm_destroyed(rank_t world_rank) noexcept {
  if (!options_.leaks) return;
  if (world_rank < 0 || world_rank >= world_size_) return;
  live_comms_[world_rank].fetch_sub(1, std::memory_order_relaxed);
}

void Checker::recv_posted(rank_t owner, rank_t /*source*/, context_t /*ctx*/,
                          tag_t /*tag*/, std::size_t /*capacity*/) {
  if (!options_.leaks) return;
  if (owner < 0 || owner >= world_size_) return;
  outstanding_requests_[owner].fetch_add(1, std::memory_order_relaxed);
}

void Checker::request_consumed(rank_t owner) {
  if (!options_.leaks) return;
  if (owner < 0 || owner >= world_size_) return;
  outstanding_requests_[owner].fetch_sub(1, std::memory_order_relaxed);
}

void Checker::record_drain(rank_t world_rank, std::size_t envelopes,
                           std::size_t posted_recvs) {
  if (!options_.leaks) return;
  if (world_rank < 0 || world_rank >= world_size_) return;
  leaked_envelopes_[world_rank].fetch_add(envelopes,
                                          std::memory_order_relaxed);
  leaked_posted_[world_rank].fetch_add(posted_recvs,
                                       std::memory_order_relaxed);
}

CheckReport::RankLeak Checker::rank_leak(rank_t world_rank) const {
  CheckReport::RankLeak leak;
  leak.world_rank = world_rank;
  leak.component = label_of(world_rank);
  if (world_rank < 0 || world_rank >= world_size_) return leak;
  leak.envelopes =
      leaked_envelopes_[world_rank].load(std::memory_order_relaxed);
  leak.posted_recvs =
      leaked_posted_[world_rank].load(std::memory_order_relaxed);
  const std::int64_t requests =
      outstanding_requests_[world_rank].load(std::memory_order_relaxed);
  leak.outstanding_requests =
      requests > 0 ? static_cast<std::size_t>(requests) : 0;
  const std::int64_t comms =
      live_comms_[world_rank].load(std::memory_order_relaxed);
  leak.live_comms = comms > 0 ? static_cast<std::size_t>(comms) : 0;
  return leak;
}

CheckReport Checker::report() const {
  CheckReport out;
  {
    const std::lock_guard<std::mutex> lock(report_mutex_);
    out.deadlocks = deadlocks_;
    out.type_mismatches = type_mismatches_;
    out.collective_mismatches = collective_mismatches_;
  }
  if (options_.leaks) {
    for (rank_t r = 0; r < world_size_; ++r) {
      CheckReport::RankLeak leak = rank_leak(r);
      if (!leak.clean()) out.leaks.push_back(std::move(leak));
    }
  }
  return out;
}

}  // namespace minimpi
