#include "src/minimpi/trace.hpp"

#include <algorithm>
#include <map>

#include "src/minimpi/mailbox.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace minimpi {

using mph::util::append_json_escaped;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

void TraceOptions::apply(std::string_view text) noexcept {
  for (const auto& [key, value] : mph::util::option_tokens(text)) {
    if (!value) {
      if (key == "1" || key == "on" || key == "all" || key == "true") {
        enabled = true;
      }
    } else if (key == "capacity") {
      const auto n = mph::util::parse_uint(*value);
      if (n && *n > 0) {
        enabled = true;
        ring_capacity = static_cast<std::size_t>(*n);
      }
    }
  }
}

TraceOptions TraceOptions::parse(std::string_view text) noexcept {
  TraceOptions opts;
  opts.apply(text);
  return opts;
}

TraceOptions TraceOptions::merged_with_env() const noexcept {
  return mph::util::apply_env_options(*this, "MINIMPI_TRACE");
}

const char* trace_op_category(TraceOp op) noexcept {
  switch (op) {
    case TraceOp::send:
    case TraceOp::post_recv:
    case TraceOp::recv:
      return "p2p";
    case TraceOp::blocked:
      return "blocked";
    case TraceOp::collective:
      return "collective";
    case TraceOp::comm_create:
      return "comm";
    case TraceOp::fault:
      return "fault";
    case TraceOp::phase:
      return "phase";
  }
  return "event";
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void TraceRing::record(const TraceEvent& event) noexcept {
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx % capacity_];
  // Invalidate first so a concurrent reader of the *previous* occupant
  // cannot accept a half-overwritten slot; publish with the release store
  // of the new stamp once every field is in place.  The field stores are
  // release (not relaxed): a reader that observes any one of them must
  // also observe the stamp invalidation above, or its re-check could pair
  // our field values with the previous occupant's stamp (mph_racer litmus
  // trace_ring_lap; free on x86).
  slot.stamp.store(0, std::memory_order_release);
  slot.t_start.store(event.t_start_ns, std::memory_order_release);
  slot.t_end.store(event.t_end_ns, std::memory_order_release);
  slot.bytes.store(event.bytes, std::memory_order_release);
  slot.flow.store(event.flow, std::memory_order_release);
  slot.name.store(event.name != nullptr ? event.name : "",
                  std::memory_order_release);
  slot.op_and_kind.store(static_cast<std::int32_t>(event.op) |
                             (event.span ? 0x100 : 0),
                         std::memory_order_release);
  slot.peer.store(event.peer, std::memory_order_release);
  slot.tag.store(event.tag, std::memory_order_release);
  slot.context.store(event.context, std::memory_order_release);
  slot.stamp.store(idx + 1, std::memory_order_release);
}

TraceRing::Snapshot TraceRing::snapshot() const {
  Snapshot out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  out.dropped = begin;
  out.events.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t idx = begin; idx < head; ++idx) {
    const Slot& slot = slots_[idx % capacity_];
    if (slot.stamp.load(std::memory_order_acquire) != idx + 1) {
      ++out.dropped;  // claimed but not yet published, or already recycled
      continue;
    }
    // Field loads are acquire to pair with the writer's release field
    // stores: seeing a lapping writer's value forces its earlier stamp
    // invalidation into view, so the re-check below cannot accept a slot
    // whose fields mix two writers (mph_racer litmus trace_ring_lap).
    TraceEvent event;
    event.t_start_ns = slot.t_start.load(std::memory_order_acquire);
    event.t_end_ns = slot.t_end.load(std::memory_order_acquire);
    event.bytes = slot.bytes.load(std::memory_order_acquire);
    event.flow = slot.flow.load(std::memory_order_acquire);
    event.name = slot.name.load(std::memory_order_acquire);
    const std::int32_t packed =
        slot.op_and_kind.load(std::memory_order_acquire);
    event.op = static_cast<TraceOp>(packed & 0xFF);
    event.span = (packed & 0x100) != 0;
    event.peer = slot.peer.load(std::memory_order_acquire);
    event.tag = slot.tag.load(std::memory_order_acquire);
    event.context = slot.context.load(std::memory_order_acquire);
    // Re-check: a writer that lapped us mid-read left a different stamp.
    if (slot.stamp.load(std::memory_order_acquire) != idx + 1) {
      ++out.dropped;
      continue;
    }
    out.events.push_back(event);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(int world_size, TraceOptions options, const JobClock& clock)
    : options_(options), clock_(clock) {
  const auto n = static_cast<std::size_t>(world_size > 0 ? world_size : 0);
  rings_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(options_.ring_capacity));
  }
  flow_seq_ = std::make_unique<FlowSeq[]>(n);
  track_names_.assign(n, std::string{});
  counters_.assign(n, {});
}

std::uint64_t Tracer::next_flow(rank_t src) noexcept {
  if (src < 0 || static_cast<std::size_t>(src) >= rings_.size()) return 0;
  const std::uint64_t seq =
      flow_seq_[static_cast<std::size_t>(src)].next.fetch_add(
          1, std::memory_order_relaxed) +
      1;
  return (static_cast<std::uint64_t>(src) + 1) << 40 | seq;
}

void Tracer::record(rank_t ring, const TraceEvent& event) noexcept {
  if (ring < 0 || static_cast<std::size_t>(ring) >= rings_.size()) return;
  rings_[static_cast<std::size_t>(ring)]->record(event);
}

void Tracer::instant(rank_t ring, TraceOp op, const char* name, rank_t peer,
                     context_t context, tag_t tag, std::uint64_t bytes,
                     std::uint64_t flow) noexcept {
  const std::uint64_t now = clock_.now_ns();
  record(ring, {now, now, op, false, name, peer, context, tag, bytes, flow});
}

void Tracer::span_end(rank_t ring, TraceOp op, const char* name,
                      std::uint64_t t_start_ns, rank_t peer, context_t context,
                      tag_t tag, std::uint64_t bytes,
                      std::uint64_t flow) noexcept {
  record(ring, {t_start_ns, std::max(clock_.now_ns(), t_start_ns), op, true,
                name, peer, context, tag, bytes, flow});
}

void Tracer::envelope_sent(Envelope& env, rank_t dest) {
  env.flow = next_flow(env.src);
  instant(env.src, TraceOp::send,
          env.tag >= kControlTagBase ? "control_send" : "send", dest,
          env.context, env.tag, env.payload.size(), env.flow);
}

std::exception_ptr Tracer::envelope_matched(rank_t owner, const Envelope& env,
                                            const TypeSig& /*expected*/,
                                            std::size_t /*capacity*/,
                                            bool posted) {
  // Posted-receive match on the receiver's timeline (possibly recorded from
  // the sender's thread — the rings are multi-producer).  A blocking
  // receive is recorded whole by recv_completed instead.
  if (posted) {
    instant(owner, TraceOp::recv, "recv_match", env.src, env.context, env.tag,
            env.payload.size(), env.flow);
  }
  return nullptr;
}

void Tracer::recv_posted(rank_t owner, rank_t source, context_t ctx,
                         tag_t tag, std::size_t capacity) {
  instant(owner, TraceOp::post_recv, "post_recv", source, ctx, tag, capacity);
}

void Tracer::recv_completed(rank_t owner, const char* op, const Status& status,
                            context_t ctx, std::uint64_t flow,
                            std::uint64_t t0_ns, std::uint64_t t1_ns) {
  record(owner, {t0_ns, t1_ns, TraceOp::recv, true, op, status.source, ctx,
                 status.tag, status.bytes, flow});
}

void Tracer::wait_unblocked(rank_t owner, const BlockedWait& wait,
                            std::uint64_t t1_ns) {
  record(owner, {wait.t0_ns, t1_ns, TraceOp::blocked, true, wait.label,
                 wait.waits_on, wait.context, wait.tag});
}

void Tracer::fault_fired(rank_t rank, const char* name, rank_t peer,
                         context_t ctx, tag_t tag, std::uint64_t detail) {
  instant(rank, TraceOp::fault, name, peer, ctx, tag, detail);
}

void Tracer::set_track_name(rank_t world_rank, std::string name) {
  if (world_rank < 0 ||
      static_cast<std::size_t>(world_rank) >= track_names_.size()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(meta_mutex_);
  track_names_[static_cast<std::size_t>(world_rank)] = std::move(name);
}

void Tracer::add_counter(rank_t world_rank, std::string name,
                         std::uint64_t value) {
  if (world_rank < 0 ||
      static_cast<std::size_t>(world_rank) >= counters_.size()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(meta_mutex_);
  counters_[static_cast<std::size_t>(world_rank)].emplace_back(std::move(name),
                                                               value);
}

// ---------------------------------------------------------------------------
// TraceReport analyses
// ---------------------------------------------------------------------------

std::string TraceReport::component_of(std::string_view track) {
  const std::size_t colon = track.rfind(':');
  if (colon == std::string_view::npos) return std::string(track);
  return std::string(track.substr(0, colon));
}

std::vector<TraceReport::Traffic> TraceReport::component_traffic() const {
  // Component of each world rank, for resolving a send's destination.
  rank_t max_rank = -1;
  for (const RankTrace& r : ranks) max_rank = std::max(max_rank, r.world_rank);
  std::vector<std::string> component(
      static_cast<std::size_t>(max_rank + 1));
  for (const RankTrace& r : ranks) {
    if (r.world_rank >= 0) {
      component[static_cast<std::size_t>(r.world_rank)] =
          component_of(r.track);
    }
  }
  std::map<std::pair<std::string, std::string>, Traffic> cells;
  for (const RankTrace& r : ranks) {
    const std::string src = component_of(r.track);
    for (const TraceEvent& e : r.events) {
      if (e.op != TraceOp::send) continue;
      std::string dest = "?";
      if (e.peer >= 0 &&
          static_cast<std::size_t>(e.peer) < component.size()) {
        dest = component[static_cast<std::size_t>(e.peer)];
      }
      Traffic& cell = cells[{src, dest}];
      cell.src = src;
      cell.dest = dest;
      cell.messages += 1;
      cell.bytes += e.bytes;
    }
  }
  std::vector<Traffic> out;
  out.reserve(cells.size());
  for (auto& [key, cell] : cells) out.push_back(std::move(cell));
  return out;
}

std::vector<TraceReport::RankBlocked> TraceReport::blocked_breakdown() const {
  std::vector<RankBlocked> out;
  out.reserve(ranks.size());
  for (const RankTrace& r : ranks) {
    RankBlocked row;
    row.world_rank = r.world_rank;
    row.track = r.track;
    // Handshake intervals on this rank's own timeline; blocked time inside
    // them is attributed to the handshake, not to p2p/collective waits.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> handshake;
    for (const TraceEvent& e : r.events) {
      if (e.op == TraceOp::phase && e.span &&
          std::string_view(e.name) == "handshake") {
        handshake.emplace_back(e.t_start_ns, e.t_end_ns);
        row.handshake_ns += e.t_end_ns - e.t_start_ns;
      }
    }
    const auto in_handshake = [&](std::uint64_t t) {
      return std::any_of(handshake.begin(), handshake.end(),
                         [&](const auto& iv) {
                           return t >= iv.first && t < iv.second;
                         });
    };
    for (const TraceEvent& e : r.events) {
      if (e.op != TraceOp::blocked || !e.span) continue;
      const std::uint64_t dur = e.t_end_ns - e.t_start_ns;
      if (in_handshake(e.t_start_ns)) continue;  // counted as handshake
      const std::string_view label(e.name);
      if (label == "recv" || label == "wait" || label == "probe" ||
          label == "test" || label == "iprobe") {
        row.recv_wait_ns += dur;
      } else {
        row.collective_wait_ns += dur;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON export
// ---------------------------------------------------------------------------

std::string us_string(std::uint64_t ns) {
  std::string out = std::to_string(ns / 1000);
  const std::uint64_t frac = ns % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

std::string TraceReport::to_chrome_json() const {
  std::string out;
  out.reserve(4096 + ranks.size() * 1024);
  out += "{\n\"traceEvents\": [\n";
  out += R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
         R"("args":{"name":"minimpi job"}})";
  for (const RankTrace& r : ranks) {
    const std::string tid = std::to_string(r.world_rank);
    out += ",\n";
    out += R"({"name":"thread_name","ph":"M","pid":0,"tid":)" + tid +
           R"(,"args":{"name":")";
    append_json_escaped(out, r.track);
    out += "\"}}";
    out += ",\n";
    out += R"({"name":"thread_sort_index","ph":"M","pid":0,"tid":)" + tid +
           R"(,"args":{"sort_index":)" + tid + "}}";
    for (const TraceEvent& e : r.events) {
      out += ",\n{\"name\":\"";
      append_json_escaped(out, e.name);
      out += "\",\"cat\":\"";
      out += trace_op_category(e.op);
      out += "\",\"pid\":0,\"tid\":" + tid;
      out += ",\"ts\":" + us_string(e.t_start_ns);
      if (e.span) {
        out += ",\"ph\":\"X\",\"dur\":" + us_string(e.t_end_ns - e.t_start_ns);
      } else {
        out += R"(,"ph":"i","s":"t")";
      }
      out += ",\"args\":{";
      bool first = true;
      const auto arg = [&](const char* key, std::uint64_t value) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += key;
        out += "\":" + std::to_string(value);
      };
      if (e.peer >= 0) arg("peer", static_cast<std::uint64_t>(e.peer));
      arg("context", e.context);
      if (e.tag >= 0) arg("tag", static_cast<std::uint64_t>(e.tag));
      if (e.bytes > 0) arg("bytes", e.bytes);
      if (e.flow > 0) arg("flow", e.flow);
      out += "}}";
    }
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";

  // Metrics rollup: ignored by trace viewers, read by `mph trace`.
  out += "\"mph\": {\n";
  out += "\"wildcardRecvs\": " + std::to_string(comm.wildcard_recvs) + ",\n";
  out += "\"contexts\": [";
  for (std::size_t i = 0; i < comm.messages_by_context.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"context\": " +
           std::to_string(comm.messages_by_context[i].first) +
           ", \"messages\": " +
           std::to_string(comm.messages_by_context[i].second) + "}";
  }
  out += "],\n\"componentTraffic\": [";
  const std::vector<Traffic> traffic = component_traffic();
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"src\": \"";
    append_json_escaped(out, traffic[i].src);
    out += "\", \"dest\": \"";
    append_json_escaped(out, traffic[i].dest);
    out += "\", \"messages\": " + std::to_string(traffic[i].messages) +
           ", \"bytes\": " + std::to_string(traffic[i].bytes) + "}";
  }
  out += "],\n\"ranks\": [";
  const std::vector<RankBlocked> blocked = blocked_breakdown();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankTrace& r = ranks[i];
    if (i > 0) out += ", ";
    out += "\n{\"rank\": " + std::to_string(r.world_rank) + ", \"track\": \"";
    append_json_escaped(out, r.track);
    out += "\", \"events\": " + std::to_string(r.events.size()) +
           ", \"dropped\": " + std::to_string(r.dropped) +
           ", \"queueHighWater\": " + std::to_string(r.queue_high_water);
    const RankBlocked& b = blocked[i];
    out += ", \"blocked\": {\"recvWaitNs\": " +
           std::to_string(b.recv_wait_ns) +
           ", \"collectiveWaitNs\": " + std::to_string(b.collective_wait_ns) +
           ", \"handshakeNs\": " + std::to_string(b.handshake_ns) + "}";
    out += ", \"counters\": [";
    for (std::size_t c = 0; c < r.counters.size(); ++c) {
      if (c > 0) out += ", ";
      out += "{\"name\": \"";
      append_json_escaped(out, r.counters[c].first);
      out += "\", \"value\": " + std::to_string(r.counters[c].second) + "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n}\n";
  return out;
}

}  // namespace minimpi
