#include "src/minimpi/job.hpp"

#include <algorithm>

#include "src/minimpi/error.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/rng.hpp"

namespace minimpi {

std::string AbortInfo::to_string() const {
  std::string out = "rank " + std::to_string(world_rank);
  if (!component.empty()) out += " (" + component + ")";
  out += " failed";
  if (!operation.empty()) out += " in " + operation;
  if (!detail.empty()) out += ": " + detail;
  return out;
}

Job::Job(int world_size, JobOptions options)
    : world_size_(world_size), options_(std::move(options)) {
  if (world_size <= 0) {
    throw Error(Errc::invalid_argument,
                "job world size must be positive, got " +
                    std::to_string(world_size));
  }
  Scheduler* sched = options_.scheduler.get();
  verify_ = sched != nullptr && sched->verifying();
  // All job-owned randomness flows from one seed so verification runs
  // replay byte-identically; drawing a fresh OS seed throws while the
  // entropy ban is armed (a verify run forgot to pin the seed).
  seed_ = options_.seed != 0 ? options_.seed : mph::util::fresh_entropy_seed();
  options_.check = options_.check.merged_with_env();
  if (options_.check.any()) {
    checker_ = std::make_unique<Checker>(options_.check, world_size);
  }
  options_.trace = options_.trace.merged_with_env();
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(world_size, options_.trace, clock_);
  }
  clock_ = JobClock{};  // after the trace rings' set-up: busy time starts here
  options_.monitor = options_.monitor.merged_with_env();
  options_.watch = options_.watch.merged_with_env();
  if (options_.watch.enabled &&
      options_.watch.dir == watch::WatchOptions{}.dir &&
      options_.monitor.dir != MonitorOptions{}.dir) {
    // One configured output directory serves both layers: a job that set
    // only monitor.dir expects the health log next to the metrics.
    options_.watch.dir = options_.monitor.dir;
  }
  if (options_.monitor.enabled || options_.watch.enabled) {
    // Watching implies collecting: the rules are functions of snapshots.
    metrics_ = std::make_unique<MetricsRegistry>(world_size, clock_);
  }
  if (options_.watch.enabled) {
    watcher_ = std::make_unique<watch::Watcher>(options_.watch);
    if (tracer_ != nullptr) {
      // Flight recorder: a firing rule drains the trace window and ships
      // critical-path blame with the alert.  Safe while ranks still run
      // (trace_report tolerates concurrent recording).
      watcher_->set_flight_recorder([this] { return trace_report(); });
    }
  }
  if (verify_) {
    rank_next_context_ = std::make_unique<mph::atomic<context_t>[]>(
        static_cast<std::size_t>(world_size));
    for (int i = 0; i < world_size; ++i) {
      rank_next_context_[i].store(0, std::memory_order_relaxed);
    }
  }
  // The seams (hooks.hpp); faults precede the scheduler, so drops skip it.
  observer_ = wire_observers(
      {checker_.get(), tracer_.get(), metrics_.get(), sched},
      observer_fan_out_);
  if (!options_.faults.empty()) {
    faults_ = std::make_unique<FaultInjector>(options_.faults, seed_,
                                              observer_);
    if (verify_) faults_->set_virtual_time(true);
  }
  interposer_ = wire_interposers({faults_.get(), sched}, interposer_fan_out_);
  mailboxes_.reserve(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(
        abort_flag_, abort_reason_, i, observer_, interposer_, clock_));
  }
  rank_labels_.assign(static_cast<std::size_t>(world_size), std::string{});
  rank_failed_ = std::make_unique<mph::atomic<bool>[]>(
      static_cast<std::size_t>(world_size));
  // Init before any rank runs: the rank pool's mutex, which hands each
  // rank to its worker, publishes these, so relaxed stores suffice.
  for (int i = 0; i < world_size; ++i) {
    rank_failed_[i].store(false, std::memory_order_relaxed);
  }
  rank_domain_.assign(static_cast<std::size_t>(world_size), -1);
  if (checker_ != nullptr) checker_->bind(this);
  if (sched != nullptr) sched->bind(this);
  // Started last: the monitor thread snapshots through metrics_snapshot(),
  // which reads the mailboxes and liveness state constructed above.  With
  // a zero interval the registry collects but nothing is published.
  if (options_.monitor.enabled && options_.monitor.interval.count() > 0) {
    Monitor::ObserveFn observe;
    if (watcher_ != nullptr) {
      observe = [this](const MetricsSnapshot& snap) {
        watcher_->observe(snap);
        return watcher_->alert_gauges();
      };
    }
    monitor_ = std::make_unique<Monitor>(
        options_.monitor, [this] { return metrics_snapshot(); },
        std::move(observe));
  }
}

Job::~Job() {
  // Park the monitor first (its snapshots read the mailboxes), then the
  // scheduler's monitor before the mailboxes it queries go away, then the
  // checker's watcher before any member *it* reaches (mailboxes, labels,
  // abort state).
  stop_monitor();
  if (options_.scheduler != nullptr) options_.scheduler->stop();
  if (checker_ != nullptr) checker_->stop();
}

void Job::stop_monitor() {
  if (monitor_ != nullptr) monitor_->stop();
}

context_t Job::allocate_context(rank_t allocator) noexcept {
  contexts_allocated_.fetch_add(1, std::memory_order_relaxed);
  if (verify_ && allocator >= 0 && allocator < world_size_) {
    // Disjoint per-rank id spaces: 20 bits of per-rank counter under a
    // rank prefix.  Ids are then a pure function of the allocating rank's
    // program order — identical across schedules, so decision traces that
    // record context ids replay exactly.
    const auto base = static_cast<context_t>(allocator + 1) << 20U;
    return base +
           rank_next_context_[allocator].fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  return next_context_.fetch_add(1, std::memory_order_relaxed);
}

context_t Job::agree_context(context_t parent, rank_t leader,
                             std::uint32_t seq, int parent_size) {
  const std::lock_guard<std::mutex> lock(agree_mutex_);
  auto [it, fresh] = agreed_.try_emplace(std::make_tuple(parent, leader, seq));
  AgreedContext& entry = it->second;
  if (fresh && !verify_) {
    entry.context = allocate_context(leader);
  } else if (fresh) {
    contexts_allocated_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t key =
        mph::util::Rng(std::uint64_t{parent} << 32 | seq)() ^
        static_cast<std::uint32_t>(leader);
    entry.context =
        static_cast<context_t>(mph::util::Rng(key)() >> 33) | 0x8000'0000U;
    if (!keyed_contexts_.insert(entry.context).second) {
      agreed_.erase(it);
      throw Error(Errc::internal,
                  "communicator context id collision under verification "
                  "(parent context " + std::to_string(parent) + ", leader " +
                      std::to_string(leader) + ", collective #" +
                      std::to_string(seq) + ")");
    }
  }
  const context_t context = entry.context;
  if (++entry.asked >= parent_size) agreed_.erase(it);
  return context;
}

Mailbox& Job::mailbox(rank_t world_rank) {
  if (world_rank < 0 || world_rank >= world_size_) {
    throw Error(Errc::invalid_rank,
                "world rank " + std::to_string(world_rank) +
                    " outside job of size " + std::to_string(world_size_));
  }
  return *mailboxes_[static_cast<std::size_t>(world_rank)];
}

void Job::abort(const std::string& reason) {
  AbortInfo info;
  info.detail = reason;
  abort(std::move(info));
}

void Job::abort(AbortInfo info) {
  {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    if (abort_flag_.load(std::memory_order_acquire)) return;
    abort_reason_ = "job aborted: " +
                    (info.world_rank < 0 ? info.detail : info.to_string());
    abort_info_ = std::move(info);
    abort_flag_.store(true, std::memory_order_release);
  }
  MPH_DIAG_LOG(error) << abort_reason_;
  for (auto& box : mailboxes_) box->wake_all();
}

void Job::set_rank_label(rank_t world_rank, std::string label) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  const std::lock_guard<std::mutex> lock(labels_mutex_);
  rank_labels_[static_cast<std::size_t>(world_rank)] = std::move(label);
}

std::string Job::rank_label(rank_t world_rank) const {
  if (world_rank < 0 || world_rank >= world_size_) return {};
  const std::lock_guard<std::mutex> lock(labels_mutex_);
  return rank_labels_[static_cast<std::size_t>(world_rank)];
}

void Job::mark_rank_failed(rank_t world_rank) {
  if (world_rank < 0 || world_rank >= world_size_) return;
  rank_failed_[static_cast<std::size_t>(world_rank)].store(
      true, std::memory_order_release);
}

bool Job::rank_failed(rank_t world_rank) const {
  if (world_rank < 0 || world_rank >= world_size_) return false;
  return rank_failed_[static_cast<std::size_t>(world_rank)].load(
      std::memory_order_acquire);
}

bool Job::any_rank_failed(rank_t low, rank_t high) const {
  for (rank_t r = low; r <= high; ++r) {
    if (rank_failed(r)) return true;
  }
  return false;
}

void Job::join_domain(rank_t world_rank, int domain_id,
                      const std::string& label) {
  if (world_rank < 0 || world_rank >= world_size_) {
    throw Error(Errc::invalid_rank,
                "join_domain: world rank " + std::to_string(world_rank) +
                    " outside job of size " + std::to_string(world_size_));
  }
  FailureDomain* domain = nullptr;
  {
    const std::lock_guard<std::mutex> lock(domains_mutex_);
    auto& slot = domains_[domain_id];
    if (slot == nullptr) {
      slot = std::make_unique<FailureDomain>();
      slot->label = label;
    }
    // Idempotent membership: a respawned rank re-joins the same domain.
    if (std::find(slot->ranks.begin(), slot->ranks.end(), world_rank) ==
        slot->ranks.end()) {
      slot->ranks.push_back(world_rank);
    }
    rank_domain_[static_cast<std::size_t>(world_rank)] = domain_id;
    domain = slot.get();
  }
  mailbox(world_rank).set_domain(&domain->flag, &domain->reason);
}

int Job::domain_of(rank_t world_rank) const {
  if (world_rank < 0 || world_rank >= world_size_) return -1;
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  return rank_domain_[static_cast<std::size_t>(world_rank)];
}

void Job::abort_domain(int domain_id, const AbortInfo& info) {
  std::vector<rank_t> members;
  {
    const std::lock_guard<std::mutex> lock(domains_mutex_);
    auto it = domains_.find(domain_id);
    if (it == domains_.end()) {
      throw Error(Errc::invalid_argument,
                  "abort_domain: unknown domain " + std::to_string(domain_id));
    }
    FailureDomain& domain = *it->second;
    if (domain.flag.load(std::memory_order_acquire)) return;
    domain.reason = "failure domain '" + domain.label +
                    "' aborted: " + info.to_string();
    domain.info = info;
    domain.flag.store(true, std::memory_order_release);
    members = domain.ranks;
    MPH_DIAG_LOG(error) << domain.reason;
  }
  for (const rank_t r : members) mailbox(r).wake_all();
}

bool Job::domain_aborted(int domain_id) const {
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  auto it = domains_.find(domain_id);
  return it != domains_.end() &&
         it->second->flag.load(std::memory_order_acquire);
}

std::optional<AbortInfo> Job::domain_abort_info(int domain_id) const {
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  auto it = domains_.find(domain_id);
  if (it == domains_.end() ||
      !it->second->flag.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  return it->second->info;
}

std::vector<rank_t> Job::domain_ranks(int domain_id) const {
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  auto it = domains_.find(domain_id);
  if (it == domains_.end()) return {};
  return it->second->ranks;
}

std::string Job::domain_label(int domain_id) const {
  const std::lock_guard<std::mutex> lock(domains_mutex_);
  auto it = domains_.find(domain_id);
  if (it == domains_.end()) return {};
  return it->second->label;
}

void Job::heal_domain(int domain_id) {
  std::vector<rank_t> members;
  {
    const std::lock_guard<std::mutex> lock(domains_mutex_);
    auto it = domains_.find(domain_id);
    if (it == domains_.end()) return;
    FailureDomain& domain = *it->second;
    if (!domain.flag.load(std::memory_order_acquire)) return;
    // Clear the flag first: the reason string is only read after observing
    // the flag set, and no member thread is running at this point anyway
    // (heal_domain's contract).
    domain.flag.store(false, std::memory_order_release);
    domain.reason.clear();
    domain.info.reset();
    members = domain.ranks;
    MPH_DIAG_LOG(info) << "failure domain '" << domain.label
                       << "' healed for respawn";
  }
  for (const rank_t r : members) {
    rank_failed_[static_cast<std::size_t>(r)].store(false,
                                                    std::memory_order_release);
    // Discard traffic addressed to the dead incarnation: the replacement
    // starts from its checkpoint with a clean mailbox.
    (void)mailbox(r).drain();
  }
}

void Job::put_shared(const std::string& key, std::string value) {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  shared_[key] = std::move(value);
}

std::optional<std::string> Job::get_shared(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  const auto it = shared_.find(key);
  if (it == shared_.end()) return std::nullopt;
  return it->second;
}

void Job::control_send(rank_t src_world, rank_t dest_world, tag_t control_tag,
                       std::span<const std::byte> bytes) {
  if (control_tag < kControlTagBase) {
    throw Error(Errc::internal, "control_send requires a control-range tag");
  }
  Envelope env;  // world context
  env.src = src_world;
  env.tag = control_tag;
  env.payload = bytes;  // borrowed until deliver() returns
  count_message(bytes.size());
  mailbox(dest_world).deliver(std::move(env));
}

CommStats Job::stats() const {
  CommStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.payload_bytes = payload_bytes_.load(std::memory_order_relaxed);
  s.contexts_allocated = contexts_allocated_.load(std::memory_order_relaxed);
  std::map<context_t, std::uint64_t> by_context;
  for (const auto& box : mailboxes_) {
    s.queue_high_water =
        std::max<std::uint64_t>(s.queue_high_water, box->queue_high_water());
    s.wildcard_recvs += box->wildcard_recvs();
    for (const auto& [ctx, count] : box->delivered_by_context()) {
      by_context[ctx] += count;
    }
  }
  s.messages_by_context.assign(by_context.begin(), by_context.end());
  return s;
}

MetricsSnapshot Job::metrics_snapshot() const {
  MetricsSnapshot snap;
  if (metrics_ == nullptr) return snap;
  snap.seq = metrics_->next_seq();
  snap.t_ns = clock_.now_ns();
  snap.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  snap.comm = stats();
  snap.ranks.reserve(static_cast<std::size_t>(world_size_));
  for (rank_t r = 0; r < world_size_; ++r) {
    RankMetrics rank = metrics_->read_rank(r);
    rank.alive = !rank_failed(r);
    if (rank.component.empty()) {
      // Pre-handshake (or non-MPH job): the executable label stands in,
      // the same fallback the trace tracks use.
      rank.component = rank_label(r);
    }
    snap.ranks.push_back(std::move(rank));
  }
  return snap;
}

TraceReport Job::trace_report() const {
  TraceReport report;
  report.comm = stats();
  if (tracer_ == nullptr) return report;
  report.ranks.reserve(static_cast<std::size_t>(world_size_));
  for (rank_t r = 0; r < world_size_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    RankTrace rank;
    rank.world_rank = r;
    {
      const std::lock_guard<std::mutex> lock(tracer_->meta_mutex_);
      rank.track = tracer_->track_names_[i];
      rank.counters = tracer_->counters_[i];
    }
    if (rank.track.empty()) {
      // Unnamed (non-MPH job or pre-handshake abort): executable label
      // plus world rank, same shape as the handshake's component:rank.
      const std::string label = rank_label(r);
      rank.track =
          (label.empty() ? "rank" : label) + ":" + std::to_string(r);
    }
    TraceRing::Snapshot snap = tracer_->ring(i).snapshot();
    rank.events = std::move(snap.events);
    rank.dropped = snap.dropped;
    rank.queue_high_water = mailboxes_[i]->queue_high_water();
    report.ranks.push_back(std::move(rank));
  }
  return report;
}

JobDrain Job::drain_all() {
  JobDrain total;
  for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
    const MailboxDrain d = mailboxes_[r]->drain();
    total.envelopes += d.envelopes;
    total.posted_recvs += d.posted_recvs;
    if (checker_ != nullptr) {
      checker_->record_drain(static_cast<rank_t>(r), d.envelopes,
                             d.posted_recvs);
    }
  }
  return total;
}

}  // namespace minimpi
