#include "src/minimpi/metrics.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "src/minimpi/mailbox.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MPH_MONITOR_HAS_UNIX_SOCKET 1
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define MPH_MONITOR_HAS_UNIX_SOCKET 0
#endif

namespace minimpi {

using mph::util::append_json_escaped;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

void MonitorOptions::apply(std::string_view text) {
  for (const auto& [key, value] : mph::util::option_tokens(text)) {
    if (!value) {
      if (key == "1" || key == "on" || key == "true") enabled = true;
      if (key == "nosocket") socket = false;
    } else if (key == "interval") {
      const auto ms = mph::util::parse_uint(*value);
      if (ms && *ms <= std::numeric_limits<std::int64_t>::max()) {
        enabled = true;
        interval = std::chrono::milliseconds(*ms);
      }
    } else if (key == "dir" && !value->empty()) {
      enabled = true;
      dir = std::string(*value);
    }
  }
}

MonitorOptions MonitorOptions::parse(std::string_view text) {
  MonitorOptions opts;
  opts.apply(text);
  return opts;
}

MonitorOptions MonitorOptions::merged_with_env() const {
  return mph::util::apply_env_options(*this, "MINIMPI_MONITOR");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry::MetricsRegistry(int world_size, JobClock clock)
    : world_size_(std::max(world_size, 0)),
      clock_(clock),
      slots_(std::make_unique<RankSlots[]>(
          static_cast<std::size_t>(world_size_))),
      components_(static_cast<std::size_t>(world_size_)),
      probes_(static_cast<std::size_t>(world_size_)) {}

void MetricsRegistry::on_send(rank_t rank, std::uint64_t bytes) noexcept {
  if (!valid(rank)) return;
  RankSlots& s = slots_[static_cast<std::size_t>(rank)];
  s.sends.fetch_add(1, std::memory_order_relaxed);
  s.send_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void MetricsRegistry::on_delivered(rank_t rank, std::uint64_t bytes) noexcept {
  if (!valid(rank)) return;
  RankSlots& s = slots_[static_cast<std::size_t>(rank)];
  s.delivered.fetch_add(1, std::memory_order_relaxed);
  s.delivered_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void MetricsRegistry::on_match(rank_t rank, std::uint64_t latency_ns) noexcept {
  if (!valid(rank)) return;
  RankSlots& s = slots_[static_cast<std::size_t>(rank)];
  // Data first, count last with release: a reader that observes this
  // event in `count` (acquire) is guaranteed to find it in `sum` and its
  // bucket too.  The original all-relaxed, count-first order let a live
  // snapshot see count = 1 with empty buckets — a phantom event
  // (mph_racer litmus metrics_histogram; see the header contract).
  s.latency_sum.fetch_add(latency_ns, std::memory_order_relaxed);
  s.latency_buckets[metrics_histogram_bucket(latency_ns)].fetch_add(
      1, std::memory_order_relaxed);
  s.latency_count.fetch_add(1, std::memory_order_release);
}

void MetricsRegistry::on_collective(rank_t rank) noexcept {
  if (!valid(rank)) return;
  slots_[static_cast<std::size_t>(rank)].collectives.fetch_add(
      1, std::memory_order_relaxed);
}

void MetricsRegistry::on_fault(rank_t rank) noexcept {
  if (!valid(rank)) return;
  slots_[static_cast<std::size_t>(rank)].faults.fetch_add(
      1, std::memory_order_relaxed);
}

void MetricsRegistry::add_blocked_ns(rank_t rank, std::uint64_t ns) noexcept {
  if (!valid(rank)) return;
  slots_[static_cast<std::size_t>(rank)].blocked_ns.fetch_add(
      ns, std::memory_order_relaxed);
}

void MetricsRegistry::set_queue_depth(rank_t rank,
                                      std::uint64_t depth) noexcept {
  if (!valid(rank)) return;
  RankSlots& s = slots_[static_cast<std::size_t>(rank)];
  s.queue_depth.store(depth, std::memory_order_relaxed);
  // Callers update under the owning mailbox's mutex, so a plain
  // load-compare-store cannot lose a maximum to a concurrent writer.
  if (depth > s.queue_high_water.load(std::memory_order_relaxed)) {
    s.queue_high_water.store(depth, std::memory_order_relaxed);
  }
}

void MetricsRegistry::envelope_sent(Envelope& env, rank_t /*dest*/) {
  on_send(env.src, env.payload.size());
}

void MetricsRegistry::envelope_delivered(rank_t owner, const Envelope& env) {
  on_delivered(owner, env.payload.size());
}

void MetricsRegistry::queue_depth_changed(rank_t owner, std::size_t depth) {
  set_queue_depth(owner, depth);
}

void MetricsRegistry::recv_completed(rank_t owner, const char* /*op*/,
                                     const Status& /*status*/,
                                     context_t /*ctx*/, std::uint64_t /*flow*/,
                                     std::uint64_t t0_ns,
                                     std::uint64_t t1_ns) {
  on_match(owner, t1_ns - t0_ns);
}

void MetricsRegistry::wait_blocked(rank_t owner, const BlockedWait& wait) {
  if (!valid(owner)) return;
  slots_[static_cast<std::size_t>(owner)].blocked_since.store(
      wait.t0_ns, std::memory_order_relaxed);
}

void MetricsRegistry::wait_unblocked(rank_t owner, const BlockedWait& wait,
                                     std::uint64_t t1_ns) {
  if (!valid(owner)) return;
  RankSlots& s = slots_[static_cast<std::size_t>(owner)];
  // Clear the open-wait stamp before flushing so a racing reader
  // momentarily under-counts rather than double-counts the wait.
  s.blocked_since.store(0, std::memory_order_relaxed);
  s.blocked_ns.fetch_add(t1_ns - wait.t0_ns, std::memory_order_relaxed);
}

void MetricsRegistry::fault_fired(rank_t rank, const char* /*name*/,
                                  rank_t /*peer*/, context_t /*ctx*/,
                                  tag_t /*tag*/, std::uint64_t /*detail*/) {
  on_fault(rank);
}

void MetricsRegistry::set_component(rank_t rank, std::string name) {
  if (!valid(rank)) return;
  const std::lock_guard<std::mutex> lock(meta_mutex_);
  components_[static_cast<std::size_t>(rank)] = std::move(name);
}

std::string MetricsRegistry::component(rank_t rank) const {
  if (!valid(rank)) return {};
  const std::lock_guard<std::mutex> lock(meta_mutex_);
  return components_[static_cast<std::size_t>(rank)];
}

void MetricsRegistry::set_handshake_ns(rank_t rank,
                                       std::uint64_t ns) noexcept {
  if (!valid(rank)) return;
  slots_[static_cast<std::size_t>(rank)].handshake_ns.store(
      ns, std::memory_order_relaxed);
}

void MetricsRegistry::add_probe(rank_t rank, std::string name,
                                std::function<std::uint64_t()> probe) {
  if (!valid(rank) || !probe) return;
  const std::lock_guard<std::mutex> lock(meta_mutex_);
  probes_[static_cast<std::size_t>(rank)].emplace_back(std::move(name),
                                                       std::move(probe));
}

RankMetrics MetricsRegistry::read_rank(rank_t rank) const {
  RankMetrics out;
  if (!valid(rank)) return out;
  const RankSlots& s = slots_[static_cast<std::size_t>(rank)];
  out.world_rank = rank;
  out.sends = s.sends.load(std::memory_order_relaxed);
  out.send_bytes = s.send_bytes.load(std::memory_order_relaxed);
  out.delivered = s.delivered.load(std::memory_order_relaxed);
  out.delivered_bytes = s.delivered_bytes.load(std::memory_order_relaxed);
  out.collectives = s.collectives.load(std::memory_order_relaxed);
  out.faults = s.faults.load(std::memory_order_relaxed);
  out.blocked_ns = s.blocked_ns.load(std::memory_order_relaxed);
  // Fold in the wait that is open right now (if any): a stalled rank's
  // blocking must be visible to live snapshots as it accrues.
  const std::uint64_t since = s.blocked_since.load(std::memory_order_relaxed);
  if (since != 0) {
    const std::uint64_t now = clock_.now_ns();
    if (now > since) out.blocked_ns += now - since;
  }
  out.queue_depth = s.queue_depth.load(std::memory_order_relaxed);
  out.queue_high_water = s.queue_high_water.load(std::memory_order_relaxed);
  out.handshake_ns = s.handshake_ns.load(std::memory_order_relaxed);
  // Count first with acquire, paired with on_match's release increment:
  // every event visible in `count` is then also visible in `sum` and the
  // buckets read below (buckets_total >= count, never phantom events).
  out.matches = s.latency_count.load(std::memory_order_acquire);
  out.match_latency.count = out.matches;
  out.match_latency.sum = s.latency_sum.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMetricsHistogramBuckets; ++i) {
    out.match_latency.buckets[i] =
        s.latency_buckets[i].load(std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(meta_mutex_);
    out.component = components_[static_cast<std::size_t>(rank)];
    for (const auto& [name, probe] : probes_[static_cast<std::size_t>(rank)]) {
      out.values.emplace_back(name, probe());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

namespace {

/// Escape a Prometheus label value (backslash, quote, newline).
void append_prom_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

}  // namespace

std::vector<ComponentMetrics> MetricsSnapshot::by_component() const {
  std::vector<ComponentMetrics> out;
  for (const RankMetrics& r : ranks) {
    const std::string& name = r.component.empty() ? std::string("rank")
                                                  : r.component;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const ComponentMetrics& c) {
                             return c.component == name;
                           });
    if (it == out.end()) {
      out.push_back(ComponentMetrics{});
      it = out.end() - 1;
      it->component = name;
    }
    it->ranks += 1;
    it->alive += r.alive ? 1 : 0;
    it->sends += r.sends;
    it->send_bytes += r.send_bytes;
    it->delivered += r.delivered;
    it->delivered_bytes += r.delivered_bytes;
    it->blocked_ns += r.blocked_ns;
    it->queue_depth += r.queue_depth;
    it->queue_high_water =
        std::max(it->queue_high_water, r.queue_high_water);
  }
  return out;
}

std::string MetricsSnapshot::to_jsonl() const {
  std::string out;
  out.reserve(512 + ranks.size() * 512);
  out += "{\"kind\": \"";
  out += kKind;
  out += "\", \"seq\": " + std::to_string(seq) +
         ", \"tNs\": " + std::to_string(t_ns) +
         ", \"wallMs\": " + std::to_string(wall_ms);
  out += ", \"job\": {\"messages\": " + std::to_string(comm.messages) +
         ", \"payloadBytes\": " + std::to_string(comm.payload_bytes) +
         ", \"contextsAllocated\": " +
         std::to_string(comm.contexts_allocated) +
         ", \"queueHighWater\": " + std::to_string(comm.queue_high_water) +
         ", \"wildcardRecvs\": " + std::to_string(comm.wildcard_recvs) +
         ", \"contexts\": [";
  for (std::size_t i = 0; i < comm.messages_by_context.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"context\": " +
           std::to_string(comm.messages_by_context[i].first) +
           ", \"messages\": " +
           std::to_string(comm.messages_by_context[i].second) + "}";
  }
  out += "]}, \"ranks\": [";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankMetrics& r = ranks[i];
    if (i > 0) out += ", ";
    out += "{\"rank\": " + std::to_string(r.world_rank) +
           ", \"component\": \"";
    append_json_escaped(out, r.component);
    out += "\", \"alive\": ";
    out += r.alive ? "true" : "false";
    out += ", \"sends\": " + std::to_string(r.sends) +
           ", \"sendBytes\": " + std::to_string(r.send_bytes) +
           ", \"delivered\": " + std::to_string(r.delivered) +
           ", \"deliveredBytes\": " + std::to_string(r.delivered_bytes) +
           ", \"matches\": " + std::to_string(r.matches) +
           ", \"collectives\": " + std::to_string(r.collectives) +
           ", \"faults\": " + std::to_string(r.faults) +
           ", \"blockedNs\": " + std::to_string(r.blocked_ns) +
           ", \"queueDepth\": " + std::to_string(r.queue_depth) +
           ", \"queueHighWater\": " + std::to_string(r.queue_high_water) +
           ", \"handshakeNs\": " + std::to_string(r.handshake_ns);
    out += ", \"matchLatency\": {\"count\": " +
           std::to_string(r.match_latency.count) +
           ", \"sumNs\": " + std::to_string(r.match_latency.sum) +
           ", \"buckets\": [";
    // Trim trailing zero buckets: the fixed array serializes sparsely.
    std::size_t last = kMetricsHistogramBuckets;
    while (last > 0 && r.match_latency.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(r.match_latency.buckets[b]);
    }
    out += "]}, \"values\": [";
    for (std::size_t v = 0; v < r.values.size(); ++v) {
      if (v > 0) out += ", ";
      out += "{\"name\": \"";
      append_json_escaped(out, r.values[v].first);
      out += "\", \"value\": " + std::to_string(r.values[v].second) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  out.reserve(1024 + ranks.size() * 1024);
  const auto labels = [](const RankMetrics& r) {
    std::string l = "{rank=\"" + std::to_string(r.world_rank) +
                    "\",component=\"";
    append_prom_escaped(l, r.component);
    l += "\"}";
    return l;
  };
  const auto series = [&](const char* name, const char* type,
                          const char* help,
                          std::uint64_t(*get)(const RankMetrics&)) {
    out += std::string("# HELP ") + name + " " + help + "\n";
    out += std::string("# TYPE ") + name + " " + type + "\n";
    for (const RankMetrics& r : ranks) {
      out += name + labels(r) + " " + std::to_string(get(r)) + "\n";
    }
  };
  out += "# HELP mph_messages_total Envelopes delivered job-wide.\n";
  out += "# TYPE mph_messages_total counter\n";
  out += "mph_messages_total " + std::to_string(comm.messages) + "\n";
  out += "# HELP mph_payload_bytes_total Payload volume delivered job-wide.\n";
  out += "# TYPE mph_payload_bytes_total counter\n";
  out += "mph_payload_bytes_total " + std::to_string(comm.payload_bytes) +
         "\n";
  out += "# HELP mph_contexts_allocated Communicators created job-wide.\n";
  out += "# TYPE mph_contexts_allocated counter\n";
  out += "mph_contexts_allocated " +
         std::to_string(comm.contexts_allocated) + "\n";
  out += "# HELP mph_wildcard_recvs_total Wildcard receives issued "
         "job-wide.\n";
  out += "# TYPE mph_wildcard_recvs_total counter\n";
  out += "mph_wildcard_recvs_total " + std::to_string(comm.wildcard_recvs) +
         "\n";
  series("mph_sends_total", "counter", "Envelopes sent by the rank.",
         [](const RankMetrics& r) { return r.sends; });
  series("mph_send_bytes_total", "counter", "Payload bytes sent by the rank.",
         [](const RankMetrics& r) { return r.send_bytes; });
  series("mph_delivered_total", "counter",
         "Envelopes delivered to the rank.",
         [](const RankMetrics& r) { return r.delivered; });
  series("mph_delivered_bytes_total", "counter",
         "Payload bytes delivered to the rank.",
         [](const RankMetrics& r) { return r.delivered_bytes; });
  series("mph_collectives_total", "counter",
         "Collective invocations entered by the rank.",
         [](const RankMetrics& r) { return r.collectives; });
  series("mph_faults_total", "counter",
         "Fault-plan rules fired on the rank.",
         [](const RankMetrics& r) { return r.faults; });
  series("mph_blocked_ns_total", "counter",
         "Nanoseconds the rank spent blocked in mailbox waits.",
         [](const RankMetrics& r) { return r.blocked_ns; });
  series("mph_queue_depth", "gauge",
         "Unmatched envelopes queued at the rank's mailbox.",
         [](const RankMetrics& r) { return r.queue_depth; });
  series("mph_queue_high_water", "gauge",
         "Largest unmatched backlog the rank's mailbox ever reached.",
         [](const RankMetrics& r) { return r.queue_high_water; });
  series("mph_handshake_ns", "gauge",
         "MPH handshake duration of the rank.",
         [](const RankMetrics& r) { return r.handshake_ns; });
  series("mph_alive", "gauge", "1 while the rank has not failed.",
         [](const RankMetrics& r) {
           return static_cast<std::uint64_t>(r.alive ? 1 : 0);
         });
  out += "# HELP mph_match_latency_ns Blocking-receive wait-to-match "
         "latency.\n";
  out += "# TYPE mph_match_latency_ns histogram\n";
  for (const RankMetrics& r : ranks) {
    std::string base = "mph_match_latency_ns_bucket{rank=\"" +
                       std::to_string(r.world_rank) + "\",component=\"";
    append_prom_escaped(base, r.component);
    base += "\",le=\"";
    std::uint64_t cumulative = 0;
    std::size_t last = kMetricsHistogramBuckets;
    while (last > 0 && r.match_latency.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      cumulative += r.match_latency.buckets[b];
      out += base + std::to_string(metrics_histogram_upper(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += base + "+Inf\"} " + std::to_string(r.match_latency.count) + "\n";
    out += "mph_match_latency_ns_sum" + labels(r) + " " +
           std::to_string(r.match_latency.sum) + "\n";
    out += "mph_match_latency_ns_count" + labels(r) + " " +
           std::to_string(r.match_latency.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

Monitor::Monitor(MonitorOptions options, SnapshotFn snapshot,
                 ObserveFn observe)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      observe_(std::move(observe)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  // Truncate a previous run's JSONL so one file holds one job's history.
  std::ofstream(options_.jsonl_path(), std::ios::trunc);
#if MPH_MONITOR_HAS_UNIX_SOCKET
  if (options_.socket) {
    const std::string path = options_.socket_path();
    sockaddr_un addr{};
    if (path.size() < sizeof(addr.sun_path)) {
      ::unlink(path.c_str());
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      addr.sun_family = AF_UNIX;
      std::copy(path.begin(), path.end(), addr.sun_path);
      if (fd >= 0 &&
          ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(fd, 4) == 0 &&
          ::fcntl(fd, F_SETFL, O_NONBLOCK) == 0) {
        listen_fd_ = fd;
      } else {
        if (fd >= 0) ::close(fd);
        MPH_DIAG_LOG(warn) << "mph_mon: cannot serve metrics socket at '"
                           << path << "' — socket disabled";
      }
    } else {
      MPH_DIAG_LOG(warn) << "mph_mon: socket path '" << path
                         << "' exceeds the AF_UNIX limit — socket disabled";
    }
  }
#endif
  thread_ = std::thread([this] { run(); });
}

Monitor::~Monitor() { stop(); }

void Monitor::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot after the thread quiesced: the files end on the job's
  // last state even when the interval never elapsed.
  publish(snapshot_());
#if MPH_MONITOR_HAS_UNIX_SOCKET
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path().c_str());
    listen_fd_ = -1;
  }
#endif
  const std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
}

void Monitor::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    publish(snapshot_());
    lock.lock();
  }
}

void Monitor::publish(const MetricsSnapshot& snap) {
  // The watch hook first: its alert gauges belong in this publish's
  // exposition, and a rule firing here is stamped with this snapshot.
  const std::string alerts = observe_ ? observe_(snap) : std::string();
  const std::string line = snap.to_jsonl();
  {
    std::ofstream jsonl(options_.jsonl_path(), std::ios::app);
    if (jsonl) jsonl << line << "\n";
  }
  {
    // Rewrite-then-rename so a scraper never reads a half-written file.
    const std::string tmp = options_.exposition_path() + ".tmp";
    std::ofstream prom(tmp, std::ios::trunc);
    if (prom) {
      prom << snap.to_prometheus();
      prom << alerts;
      prom.close();
      std::error_code ec;
      std::filesystem::rename(tmp, options_.exposition_path(), ec);
    }
  }
  serve_socket(line);
}

void Monitor::serve_socket(const std::string& line) {
#if MPH_MONITOR_HAS_UNIX_SOCKET
  if (listen_fd_ < 0) return;
  // Drain every pending connection; each client gets the latest snapshot
  // line and an EOF — the whole protocol.
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) break;
    std::size_t off = 0;
    const std::string payload = line + "\n";
    while (off < payload.size()) {
      const ssize_t n =
          ::write(client, payload.data() + off, payload.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
#else
  (void)line;
#endif
}

}  // namespace minimpi
