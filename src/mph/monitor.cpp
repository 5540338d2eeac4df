#include "src/mph/monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "src/util/json.hpp"
#include "src/util/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MPH_MON_HAS_UNIX_SOCKET 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define MPH_MON_HAS_UNIX_SOCKET 0
#endif

namespace mph::mon {

namespace {

using minimpi::MetricsSnapshot;
using minimpi::RankMetrics;
using util::JsonValue;

std::uint64_t get_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : 0;
}

RankMetrics parse_rank(const JsonValue& obj) {
  RankMetrics r;
  r.world_rank = static_cast<minimpi::rank_t>(get_u64(obj, "rank"));
  if (const JsonValue* c = obj.find("component")) r.component = c->as_string();
  if (const JsonValue* a = obj.find("alive")) r.alive = a->as_bool();
  r.sends = get_u64(obj, "sends");
  r.send_bytes = get_u64(obj, "sendBytes");
  r.delivered = get_u64(obj, "delivered");
  r.delivered_bytes = get_u64(obj, "deliveredBytes");
  r.matches = get_u64(obj, "matches");
  r.collectives = get_u64(obj, "collectives");
  r.faults = get_u64(obj, "faults");
  r.blocked_ns = get_u64(obj, "blockedNs");
  r.queue_depth = get_u64(obj, "queueDepth");
  r.queue_high_water = get_u64(obj, "queueHighWater");
  r.handshake_ns = get_u64(obj, "handshakeNs");
  if (const JsonValue* lat = obj.find("matchLatency")) {
    r.match_latency.count = get_u64(*lat, "count");
    r.match_latency.sum = get_u64(*lat, "sumNs");
    if (const JsonValue* buckets = lat->find("buckets")) {
      const auto& items = buckets->items();
      const std::size_t n =
          std::min(items.size(), minimpi::kMetricsHistogramBuckets);
      for (std::size_t b = 0; b < n; ++b) {
        r.match_latency.buckets[b] =
            static_cast<std::uint64_t>(items[b].as_int());
      }
    }
  }
  if (const JsonValue* values = obj.find("values")) {
    for (const JsonValue& entry : values->items()) {
      r.values.emplace_back(entry.at("name").as_string(),
                            get_u64(entry, "value"));
    }
  }
  return r;
}

/// "12.3k" / "4.5M" style compact magnitude for the table cells.
std::string human(double value) {
  char buf[32];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.1fG", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  }
  return buf;
}

std::string pad(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace

MetricsSnapshot parse_snapshot(const std::string& json_line) {
  const JsonValue doc = JsonValue::parse(json_line);
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || kind->as_string() != MetricsSnapshot::kKind) {
    throw std::runtime_error(
        "not an mph_metrics snapshot: expected a JSON object with "
        "\"kind\": \"mph_metrics\" (one line of the monitor's "
        "mph_metrics.jsonl)");
  }
  MetricsSnapshot snap;
  snap.seq = get_u64(doc, "seq");
  snap.t_ns = get_u64(doc, "tNs");
  snap.wall_ms = get_u64(doc, "wallMs");
  if (const JsonValue* job = doc.find("job")) {
    snap.comm.messages = get_u64(*job, "messages");
    snap.comm.payload_bytes = get_u64(*job, "payloadBytes");
    snap.comm.contexts_allocated = get_u64(*job, "contextsAllocated");
    snap.comm.queue_high_water = get_u64(*job, "queueHighWater");
    snap.comm.wildcard_recvs = get_u64(*job, "wildcardRecvs");
    if (const JsonValue* contexts = job->find("contexts")) {
      for (const JsonValue& entry : contexts->items()) {
        snap.comm.messages_by_context.emplace_back(
            static_cast<minimpi::context_t>(entry.at("context").as_int()),
            get_u64(entry, "messages"));
      }
    }
  }
  if (const JsonValue* ranks = doc.find("ranks")) {
    for (const JsonValue& entry : ranks->items()) {
      snap.ranks.push_back(parse_rank(entry));
    }
  }
  return snap;
}

bool looks_like_metrics(const std::string& text) {
  // First line only: a JSONL stream fails whole-document parsing, and the
  // caller usually has the whole file in hand.
  std::string first = text.substr(0, text.find('\n'));
  try {
    const JsonValue doc = JsonValue::parse(first);
    const JsonValue* kind = doc.find("kind");
    return kind != nullptr && kind->as_string() == MetricsSnapshot::kKind;
  } catch (const std::exception&) {
    return false;
  }
}

std::optional<std::string> last_jsonl_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  if (last.empty()) return std::nullopt;
  return last;
}

std::optional<MetricsSnapshot> last_valid_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::optional<MetricsSnapshot> newest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      newest = parse_snapshot(line);
    } catch (const std::exception&) {
      // A torn line from rotation or a half-written tail: skip and keep
      // the newest complete frame seen so far.
    }
  }
  return newest;
}

minimpi::watch::HealthEvent parse_health_event(const std::string& json_line) {
  const JsonValue doc = JsonValue::parse(json_line);
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr ||
      kind->as_string() != minimpi::watch::HealthEvent::kKind) {
    throw std::runtime_error(
        "not an mph_health event: expected a JSON object with "
        "\"kind\": \"mph_health\" (one line of the watcher's "
        "mph_health.jsonl)");
  }
  minimpi::watch::HealthEvent ev;
  ev.seq = get_u64(doc, "seq");
  ev.t_ns = get_u64(doc, "tNs");
  ev.wall_ms = get_u64(doc, "wallMs");
  if (const JsonValue* v = doc.find("rule")) ev.rule = v->as_string();
  if (const JsonValue* v = doc.find("severity")) {
    const std::string name = v->as_string();
    ev.severity = name == "critical" ? minimpi::watch::Severity::critical
                  : name == "info"   ? minimpi::watch::Severity::info
                                     : minimpi::watch::Severity::warning;
  }
  if (const JsonValue* v = doc.find("cleared")) ev.cleared = v->as_bool();
  if (const JsonValue* v = doc.find("subject")) ev.subject = v->as_string();
  if (const JsonValue* v = doc.find("value")) ev.value = v->as_number();
  if (const JsonValue* v = doc.find("threshold")) {
    ev.threshold = v->as_number();
  }
  if (const JsonValue* v = doc.find("message")) ev.message = v->as_string();
  if (const JsonValue* v = doc.find("blame")) ev.blame = v->as_string();
  if (const JsonValue* v = doc.find("flightFile")) {
    ev.flight_file = v->as_string();
  }
  return ev;
}

bool looks_like_health(const std::string& text) {
  std::string first = text.substr(0, text.find('\n'));
  try {
    const JsonValue doc = JsonValue::parse(first);
    const JsonValue* kind = doc.find("kind");
    return kind != nullptr &&
           kind->as_string() == minimpi::watch::HealthEvent::kKind;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<minimpi::watch::HealthEvent> read_health_tail(
    const std::string& path, std::size_t max_events) {
  std::vector<minimpi::watch::HealthEvent> events;
  std::ifstream in(path);
  if (!in) return events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      events.push_back(parse_health_event(line));
    } catch (const std::exception&) {
      // Same tolerance as last_valid_snapshot: skip torn lines.
    }
  }
  if (events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return events;
}

std::vector<minimpi::watch::HealthEvent> active_alerts(
    const std::vector<minimpi::watch::HealthEvent>& events) {
  // Replay: the newest edge per rule/subject wins.
  std::vector<minimpi::watch::HealthEvent> active;
  for (const minimpi::watch::HealthEvent& ev : events) {
    const auto it = std::find_if(
        active.begin(), active.end(),
        [&](const minimpi::watch::HealthEvent& a) {
          return a.rule == ev.rule && a.subject == ev.subject;
        });
    if (ev.cleared) {
      if (it != active.end()) active.erase(it);
    } else if (it != active.end()) {
      *it = ev;
    } else {
      active.push_back(ev);
    }
  }
  return active;
}

std::optional<std::string> read_socket_line(const std::string& socket_path) {
#if MPH_MON_HAS_UNIX_SOCKET
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) return std::nullopt;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, socket_path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (out.empty()) return std::nullopt;
  return out;
#else
  (void)socket_path;
  return std::nullopt;
#endif
}

TopView build_top_view(const MetricsSnapshot* prev,
                       const MetricsSnapshot& cur) {
  TopView view;
  view.seq = cur.seq;
  view.wall_ms = cur.wall_ms;
  view.uptime_s = static_cast<double>(cur.t_ns) / 1e9;
  view.total_messages = cur.comm.messages;
  view.total_bytes = cur.comm.payload_bytes;
  view.wildcard_recvs = cur.comm.wildcard_recvs;
  view.queue_high_water = cur.comm.queue_high_water;
  view.ranks = static_cast<int>(cur.ranks.size());
  for (const RankMetrics& r : cur.ranks) {
    if (r.alive) ++view.alive;
  }

  const std::vector<minimpi::ComponentMetrics> comps = cur.by_component();
  const std::vector<minimpi::ComponentMetrics> prev_comps =
      prev != nullptr ? prev->by_component()
                      : std::vector<minimpi::ComponentMetrics>{};
  const double dt_s =
      prev != nullptr && cur.t_ns > prev->t_ns
          ? static_cast<double>(cur.t_ns - prev->t_ns) / 1e9
          : 0.0;
  for (const minimpi::ComponentMetrics& c : comps) {
    TopRow row;
    row.component = c.component;
    row.ranks = c.ranks;
    row.alive = c.alive;
    row.sends = c.sends;
    row.delivered = c.delivered;
    row.queue_depth = c.queue_depth;
    row.queue_high_water = c.queue_high_water;
    if (dt_s > 0.0) {
      const auto it =
          std::find_if(prev_comps.begin(), prev_comps.end(),
                       [&](const minimpi::ComponentMetrics& p) {
                         return p.component == c.component;
                       });
      if (it != prev_comps.end() && c.delivered >= it->delivered) {
        row.msgs_per_s =
            static_cast<double>(c.delivered - it->delivered) / dt_s;
        row.bytes_per_s =
            static_cast<double>(c.delivered_bytes - it->delivered_bytes) /
            dt_s;
        // Blocked time accumulates across the component's ranks, so one
        // fully-blocked rank of n is 100/n percent.
        const double blocked_delta = c.blocked_ns >= it->blocked_ns
                                         ? static_cast<double>(c.blocked_ns -
                                                               it->blocked_ns)
                                         : 0.0;
        const double wall_ns = dt_s * 1e9 * std::max(1, c.ranks);
        row.blocked_pct = std::min(100.0, 100.0 * blocked_delta / wall_ns);
      }
    }
    view.rows.push_back(std::move(row));
  }
  return view;
}

std::string render_top(const TopView& view) {
  char head[160];
  std::snprintf(head, sizeof head,
                "mph_mon  snapshot #%llu  up %.1fs  ranks %d/%d alive\n",
                static_cast<unsigned long long>(view.seq), view.uptime_s,
                view.alive, view.ranks);
  std::string out = head;
  out += "job: " + human(static_cast<double>(view.total_messages)) +
         " msgs, " + human(static_cast<double>(view.total_bytes)) +
         "B payload, " +
         std::to_string(view.wildcard_recvs) + " wildcard recvs, queue hw " +
         std::to_string(view.queue_high_water) + "\n";
  out += pad("COMPONENT", 16) + pad("RANKS", 7) + pad("ALIVE", 7) +
         pad("MSG/S", 9) + pad("BYTES/S", 10) + pad("QUEUE", 7) +
         pad("Q.HW", 7) + pad("BLOCKED%", 9) + "\n";
  for (const TopRow& row : view.rows) {
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.1f", row.blocked_pct);
    out += pad(row.component, 16) + pad(std::to_string(row.ranks), 7) +
           pad(std::to_string(row.alive), 7) + pad(human(row.msgs_per_s), 9) +
           pad(human(row.bytes_per_s), 10) +
           pad(std::to_string(row.queue_depth), 7) +
           pad(std::to_string(row.queue_high_water), 7) + pad(pct, 9) + "\n";
  }
  return out;
}

WatchView build_watch_view(std::vector<WatchJob> jobs,
                           std::size_t max_recent) {
  WatchView view;
  view.jobs = std::move(jobs);
  for (std::size_t j = 0; j < view.jobs.size(); ++j) {
    view.active += active_alerts(view.jobs[j].events).size();
    for (const minimpi::watch::HealthEvent& ev : view.jobs[j].events) {
      view.recent.emplace_back(j, ev);
    }
  }
  // Stable sort on the wall-clock stamp merges the jobs' streams into one
  // timeline while keeping each job's own order for equal stamps.
  std::stable_sort(view.recent.begin(), view.recent.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.wall_ms < b.second.wall_ms;
                   });
  if (view.recent.size() > max_recent) {
    view.recent.erase(
        view.recent.begin(),
        view.recent.end() - static_cast<std::ptrdiff_t>(max_recent));
  }
  return view;
}

std::string render_watch(const WatchView& view) {
  std::string out = "mph_watch  " + std::to_string(view.jobs.size()) +
                    " job(s), " + std::to_string(view.active) +
                    " active alert(s)\n";
  for (std::size_t j = 0; j < view.jobs.size(); ++j) {
    const WatchJob& job = view.jobs[j];
    out += "[" + std::to_string(j) + "] " + job.source + "  ";
    if (job.snapshot.has_value()) {
      const MetricsSnapshot& snap = *job.snapshot;
      int alive = 0;
      for (const RankMetrics& r : snap.ranks) {
        if (r.alive) ++alive;
      }
      char line[160];
      std::snprintf(line, sizeof line,
                    "#%llu up %.1fs  ranks %d/%d alive  %s msgs",
                    static_cast<unsigned long long>(snap.seq),
                    static_cast<double>(snap.t_ns) / 1e9, alive,
                    static_cast<int>(snap.ranks.size()),
                    human(static_cast<double>(snap.comm.messages)).c_str());
      out += line;
      out += job.online ? "" : "  (offline)";
    } else {
      out += "(no snapshot)";
    }
    out += "\n";
    for (const minimpi::watch::HealthEvent& ev : active_alerts(job.events)) {
      out += "    ALERT " +
             std::string(minimpi::watch::severity_name(ev.severity)) + " " +
             ev.rule + "/" + ev.subject + ": " + ev.message;
      if (!ev.blame.empty()) out += "  [blame: " + ev.blame + "]";
      out += "\n";
    }
  }
  if (!view.recent.empty()) {
    out += "recent events:\n";
    for (const auto& [j, ev] : view.recent) {
      out += "  [" + std::to_string(j) + "] " +
             std::string(minimpi::watch::severity_name(ev.severity)) +
             (ev.cleared ? " cleared " : " fired   ") + ev.rule + "/" +
             ev.subject + ": " + ev.message + "\n";
    }
  }
  return out;
}

}  // namespace mph::mon
