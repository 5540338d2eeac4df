#include "src/minimpi/watch/watch.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <system_error>

#include "src/minimpi/prof/profile.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace minimpi::watch {

using mph::util::append_json_escaped;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

void WatchOptions::apply(std::string_view text) {
  for (const auto& [key, value] : mph::util::option_tokens(text)) {
    if (!value) {
      if (key == "1" || key == "on" || key == "true") enabled = true;
      if (key == "noflight") flight_record = false;
      continue;
    }
    const std::optional<double> real = mph::util::parse_double(*value);
    const bool real_ok = real && *real >= 0.0 && std::isfinite(*real);
    const std::optional<unsigned long long> count =
        mph::util::parse_uint(*value);
    // fire/clear/window: clamped to what the hysteresis engine can run with.
    const auto at_least = [&](unsigned long long least) {
      return static_cast<int>(std::clamp<unsigned long long>(
          *count, least, std::numeric_limits<int>::max()));
    };
    if (key == "stall" && real_ok) {
      stall_blocked_pct = *real;
    } else if (key == "queue" && count) {
      queue_high = *count;
    } else if (key == "p99ms" && real_ok && *real < 1e13) {
      latency_p99_ns = static_cast<std::uint64_t>(*real * 1e6);
    } else if (key == "imbalance" && real_ok) {
      imbalance_ratio = *real;
    } else if (key == "faults" && count) {
      fault_budget = *count;
    } else if (key == "fire" && count) {
      fire_after = at_least(1);
    } else if (key == "clear" && count) {
      clear_after = at_least(1);
    } else if (key == "window" && count) {
      window = static_cast<std::size_t>(at_least(2));
    } else if (key == "dir" && !value->empty()) {
      dir = std::string(*value);
    } else {
      continue;  // unknown key, or a value that does not parse strictly
    }
    enabled = true;  // every configuring token also enables
  }
}

WatchOptions WatchOptions::parse(std::string_view text) {
  WatchOptions opts;
  opts.apply(text);
  return opts;
}

WatchOptions WatchOptions::merged_with_env() const {
  return mph::util::apply_env_options(*this, "MINIMPI_WATCH");
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::info: return "info";
    case Severity::warning: return "warning";
    case Severity::critical: return "critical";
  }
  return "unknown";
}

namespace {

std::string json_number(double value) {
  // JSON has no infinity/NaN; clamp the pathological cases to 0.
  if (!(value == value) || value > 1e300 || value < -1e300) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

std::string HealthEvent::to_jsonl() const {
  std::string out;
  out.reserve(256);
  out += "{\"kind\": \"";
  out += kKind;
  out += "\", \"seq\": " + std::to_string(seq) +
         ", \"tNs\": " + std::to_string(t_ns) +
         ", \"wallMs\": " + std::to_string(wall_ms) + ", \"rule\": \"";
  append_json_escaped(out, rule);
  out += "\", \"severity\": \"";
  out += severity_name(severity);
  out += "\", \"cleared\": ";
  out += cleared ? "true" : "false";
  out += ", \"subject\": \"";
  append_json_escaped(out, subject);
  out += "\", \"value\": " + json_number(value) +
         ", \"threshold\": " + json_number(threshold) + ", \"message\": \"";
  append_json_escaped(out, message);
  out += "\", \"blame\": \"";
  append_json_escaped(out, blame);
  out += "\", \"flightFile\": \"";
  append_json_escaped(out, flight_file);
  out += "\"}";
  return out;
}

// ---------------------------------------------------------------------------
// Watcher
// ---------------------------------------------------------------------------

Watcher::Watcher(WatchOptions options) : options_(std::move(options)) {}

void Watcher::set_flight_recorder(FlightFn fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  flight_ = std::move(fn);
}

namespace {

/// Windowed per-component aggregate the rules judge.
struct CompWindow {
  std::string component;
  int ranks = 0;
  int alive = 0;
  std::uint64_t delivered_delta = 0;
  std::uint64_t blocked_delta = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t faults = 0;  ///< cumulative (monotone)
  HistogramData latency_delta;  ///< over the whole retained window
};

/// p99 of a log2 histogram: the upper bound of the first bucket whose
/// cumulative count covers 99% of the events.
std::uint64_t histogram_p99(const HistogramData& h) {
  if (h.count == 0) return 0;
  const std::uint64_t target =
      std::max<std::uint64_t>(1, (h.count * 99 + 99) / 100);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kMetricsHistogramBuckets; ++b) {
    cumulative += h.buckets[b];
    if (cumulative >= target) return metrics_histogram_upper(b);
  }
  return metrics_histogram_upper(kMetricsHistogramBuckets - 1);
}

std::vector<CompWindow> component_windows(const MetricsSnapshot& cur,
                                          const MetricsSnapshot& prev,
                                          const MetricsSnapshot& oldest) {
  std::vector<CompWindow> out;
  const auto find_rank = [](const MetricsSnapshot& snap, rank_t rank)
      -> const RankMetrics* {
    for (const RankMetrics& r : snap.ranks) {
      if (r.world_rank == rank) return &r;
    }
    return nullptr;
  };
  for (const RankMetrics& r : cur.ranks) {
    const std::string& name =
        r.component.empty() ? std::string("rank") : r.component;
    auto it = std::find_if(
        out.begin(), out.end(),
        [&](const CompWindow& c) { return c.component == name; });
    if (it == out.end()) {
      out.push_back(CompWindow{});
      it = out.end() - 1;
      it->component = name;
    }
    it->ranks += 1;
    it->alive += r.alive ? 1 : 0;
    it->queue_depth += r.queue_depth;
    it->faults += r.faults;
    const RankMetrics* p = find_rank(prev, r.world_rank);
    if (p != nullptr) {
      it->delivered_delta += r.delivered >= p->delivered
                                 ? r.delivered - p->delivered
                                 : 0;
      it->blocked_delta += r.blocked_ns >= p->blocked_ns
                               ? r.blocked_ns - p->blocked_ns
                               : 0;
    }
    const RankMetrics* o = find_rank(oldest, r.world_rank);
    if (o != nullptr) {
      const HistogramData& now = r.match_latency;
      const HistogramData& then = o->match_latency;
      it->latency_delta.count +=
          now.count >= then.count ? now.count - then.count : 0;
      it->latency_delta.sum += now.sum >= then.sum ? now.sum - then.sum : 0;
      for (std::size_t b = 0; b < kMetricsHistogramBuckets; ++b) {
        it->latency_delta.buckets[b] += now.buckets[b] >= then.buckets[b]
                                            ? now.buckets[b] - then.buckets[b]
                                            : 0;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<HealthEvent> Watcher::observe(const MetricsSnapshot& snap) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.empty() && snap.seq <= ring_.back().seq) return {};  // stale

  std::vector<HealthEvent> produced;
  if (!ring_.empty()) {
    const MetricsSnapshot& prev = ring_.back();
    const MetricsSnapshot& oldest = ring_.front();
    const std::uint64_t dt_ns = snap.t_ns > prev.t_ns
                                    ? snap.t_ns - prev.t_ns
                                    : 0;
    const std::vector<CompWindow> comps =
        component_windows(snap, prev, oldest);

    // --- member_down: immediate, per rank, no debounce -------------------
    for (const RankMetrics& r : snap.ranks) {
      const auto p = std::find_if(prev.ranks.begin(), prev.ranks.end(),
                                  [&](const RankMetrics& m) {
                                    return m.world_rank == r.world_rank;
                                  });
      if (p == prev.ranks.end()) continue;
      const std::string key =
          "member_down/rank " + std::to_string(r.world_rank);
      RuleState& state = states_[key];
      if (p->alive && !r.alive && !state.active) {
        state.active = true;
        HealthEvent ev;
        ev.seq = snap.seq;
        ev.t_ns = snap.t_ns;
        ev.wall_ms = snap.wall_ms;
        ev.rule = "member_down";
        ev.severity = Severity::critical;
        ev.subject = r.component.empty()
                         ? "rank " + std::to_string(r.world_rank)
                         : r.component;
        ev.value = 0;
        ev.threshold = 1;
        ev.message = "rank " + std::to_string(r.world_rank) + " (" +
                     r.component + ") stopped responding";
        produced.push_back(std::move(ev));
      } else if (!p->alive && r.alive && state.active) {
        // A healed (respawned) member: emit the recovery edge.
        state.active = false;
        HealthEvent ev;
        ev.seq = snap.seq;
        ev.t_ns = snap.t_ns;
        ev.wall_ms = snap.wall_ms;
        ev.rule = "member_down";
        ev.severity = Severity::info;
        ev.cleared = true;
        ev.subject = r.component.empty()
                         ? "rank " + std::to_string(r.world_rank)
                         : r.component;
        ev.value = 1;
        ev.threshold = 1;
        ev.message = "rank " + std::to_string(r.world_rank) + " (" +
                     r.component + ") is back";
        produced.push_back(std::move(ev));
      }
    }

    // --- per-component threshold rules (debounced) -----------------------
    double max_busy_share = 0.0;
    double busy_share_sum = 0.0;
    int busy_comps = 0;
    std::string busiest;
    for (const CompWindow& c : comps) {
      // stall: blocked nearly the whole interval and nothing arrived.
      if (dt_ns > 0) {
        const double wall = static_cast<double>(dt_ns) *
                            std::max(1, c.ranks);
        const double blocked_pct =
            100.0 * static_cast<double>(c.blocked_delta) / wall;
        judge("stall", c.component,
              blocked_pct >= options_.stall_blocked_pct &&
                  c.delivered_delta == 0,
              Severity::critical, blocked_pct, options_.stall_blocked_pct,
              c.component + " blocked " +
                  std::to_string(static_cast<int>(blocked_pct)) +
                  "% of the interval with zero deliveries",
              snap, produced);

        // imbalance inputs: busy share of the interval per component.
        const double busy =
            std::max(0.0, wall - static_cast<double>(c.blocked_delta));
        const double share = busy / wall;
        busy_share_sum += share;
        ++busy_comps;
        if (share > max_busy_share) {
          max_busy_share = share;
          busiest = c.component;
        }
      }

      // queue growth past the high-water threshold.
      judge("queue", c.component, c.queue_depth >= options_.queue_high,
            Severity::warning, static_cast<double>(c.queue_depth),
            static_cast<double>(options_.queue_high),
            c.component + " has " + std::to_string(c.queue_depth) +
                " unmatched envelopes queued",
            snap, produced);

      // match-latency p99 over the retained window.
      if (c.latency_delta.count >= options_.latency_min_count) {
        const std::uint64_t p99 = histogram_p99(c.latency_delta);
        judge("latency_p99", c.component, p99 >= options_.latency_p99_ns,
              Severity::warning, static_cast<double>(p99),
              static_cast<double>(options_.latency_p99_ns),
              c.component + " match-latency p99 is " +
                  std::to_string(p99 / 1000000) + " ms",
              snap, produced);
      }

      // fault/liveness budget burn (cumulative, monotone).
      judge("fault_burn", c.component, c.faults >= options_.fault_budget,
            Severity::warning, static_cast<double>(c.faults),
            static_cast<double>(options_.fault_budget),
            c.component + " burned " + std::to_string(c.faults) +
                " of its fault budget",
            snap, produced);
    }

    // cross-component imbalance: the busiest component vs the mean.
    if (busy_comps >= 2 && busy_share_sum > 0.0) {
      const double mean = busy_share_sum / busy_comps;
      const double ratio = mean > 0.0 ? max_busy_share / mean : 0.0;
      judge("imbalance", busiest, ratio >= options_.imbalance_ratio,
            Severity::warning, ratio, options_.imbalance_ratio,
            busiest + " busy share is " + json_number(ratio) +
                "x the component mean",
            snap, produced);
    }
  }

  ring_.push_back(snap);
  while (ring_.size() > options_.window) ring_.pop_front();

  if (!produced.empty()) {
    attach_flight_record(snap, produced);
    for (const HealthEvent& ev : produced) {
      if (!ev.cleared && ev.rule == "imbalance") imbalance_pending_ = true;
      events_.push_back(ev);
    }
    append_health_lines(produced);
  }
  return produced;
}

void Watcher::judge(const std::string& rule, const std::string& subject,
                    bool breach, Severity severity, double value,
                    double threshold, const std::string& message,
                    const MetricsSnapshot& snap,
                    std::vector<HealthEvent>& out) {
  RuleState& state = states_[rule + "/" + subject];
  HealthEvent ev;
  ev.seq = snap.seq;
  ev.t_ns = snap.t_ns;
  ev.wall_ms = snap.wall_ms;
  ev.rule = rule;
  ev.subject = subject;
  ev.value = value;
  ev.threshold = threshold;
  if (breach) {
    state.oks = 0;
    if (!state.active && ++state.breaches >= options_.fire_after) {
      state.active = true;
      state.breaches = 0;
      ev.severity = severity;
      ev.message = message;
      out.push_back(std::move(ev));
    }
  } else {
    state.breaches = 0;
    if (state.active && ++state.oks >= options_.clear_after) {
      state.active = false;
      state.oks = 0;
      ev.severity = Severity::info;
      ev.cleared = true;
      ev.message = rule + " cleared for " + subject;
      out.push_back(std::move(ev));
    }
  }
}

void Watcher::attach_flight_record(const MetricsSnapshot& snap,
                                   std::vector<HealthEvent>& fired) {
  if (!options_.flight_record || !flight_) return;
  const bool worth_dumping = std::any_of(
      fired.begin(), fired.end(), [](const HealthEvent& ev) {
        return !ev.cleared && ev.severity != Severity::info;
      });
  if (!worth_dumping) return;

  // One dump per snapshot, shared by every event that fired on it: drain
  // the ring window, stitch the critical path, name the top blame.
  const TraceReport report = flight_();
  if (report.ranks.empty()) return;
  const prof::Profile profile = prof::Graph::build(report).profile();
  const std::vector<prof::ComponentBlame> blame = profile.components();
  std::string blame_text;
  if (!blame.empty()) {
    blame_text = blame.front().component + " (" +
                 std::to_string(static_cast<int>(blame.front().share * 100)) +
                 "% of critical path)";
  }
  std::string file;
  if (!dir_ready_) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    dir_ready_ = true;
  }
  {
    std::ofstream dump(options_.flight_path(snap.seq), std::ios::trunc);
    if (dump) {
      dump << prof::annotate_chrome_json(report, profile);
      file = options_.flight_path(snap.seq);
    } else {
      MPH_DIAG_LOG(warn) << "mph_watch: cannot write flight record to '"
                         << options_.flight_path(snap.seq) << "'";
    }
  }
  for (HealthEvent& ev : fired) {
    if (ev.cleared || ev.severity == Severity::info) continue;
    ev.blame = blame_text;
    ev.flight_file = file;
  }
}

void Watcher::append_health_lines(const std::vector<HealthEvent>& events) {
  if (!dir_ready_) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    dir_ready_ = true;
  }
  std::ofstream out(options_.health_path(), std::ios::app);
  if (!out) return;
  for (const HealthEvent& ev : events) out << ev.to_jsonl() << "\n";
}

std::vector<HealthEvent> Watcher::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Watcher::active_alerts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, state] : states_) {
    if (state.active) ++n;
  }
  return n;
}

std::string Watcher::alert_gauges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out += "# HELP mph_watch_alert 1 while the rule's alert is active for "
         "the subject.\n";
  out += "# TYPE mph_watch_alert gauge\n";
  for (const auto& [key, state] : states_) {
    const std::size_t slash = key.find('/');
    std::string rule = key.substr(0, slash);
    std::string subject =
        slash == std::string::npos ? std::string() : key.substr(slash + 1);
    out += "mph_watch_alert{rule=\"";
    append_json_escaped(out, rule);
    out += "\",subject=\"";
    append_json_escaped(out, subject);
    out += "\"} ";
    out += state.active ? "1\n" : "0\n";
  }
  out += "# HELP mph_watch_events_total Health events recorded this job.\n";
  out += "# TYPE mph_watch_events_total counter\n";
  out += "mph_watch_events_total " + std::to_string(events_.size()) + "\n";
  return out;
}

bool Watcher::consume_imbalance_alert() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool pending = imbalance_pending_;
  imbalance_pending_ = false;
  return pending;
}

}  // namespace minimpi::watch
