#include "src/minimpi/prof/trace_load.hpp"

#include <cmath>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/minimpi/error.hpp"
#include "src/util/json.hpp"

namespace minimpi::prof {

namespace {

using mph::util::JsonValue;

std::uint64_t arg_u64(const JsonValue& event, const char* key,
                      std::uint64_t fallback) {
  const JsonValue* args = event.find("args");
  if (args == nullptr) return fallback;
  const JsonValue* value = args->find(key);
  if (value == nullptr) return fallback;
  return static_cast<std::uint64_t>(value->as_int());
}

std::int64_t arg_i64(const JsonValue& event, const char* key,
                     std::int64_t fallback) {
  const JsonValue* args = event.find("args");
  if (args == nullptr) return fallback;
  const JsonValue* value = args->find(key);
  if (value == nullptr) return fallback;
  return value->as_int();
}

/// Microsecond decimal ("1234.567") back to integral nanoseconds.  The
/// export writes exactly three fractional digits, so the double round-trip
/// is exact for any realistic job duration.
std::uint64_t us_to_ns(const JsonValue& value) {
  const double us = value.as_number();
  return us <= 0.0 ? 0
                   : static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

TraceOp op_of(std::string_view cat, std::string_view name, bool span) {
  if (cat == "p2p") {
    if (!span) {
      if (name == "post_recv") return TraceOp::post_recv;
      if (name == "recv_match") return TraceOp::recv;
      return TraceOp::send;  // "send" / "control_send"
    }
    return TraceOp::recv;  // "recv" / "wait" spans
  }
  if (cat == "blocked") return TraceOp::blocked;
  if (cat == "collective") return TraceOp::collective;
  if (cat == "comm") return TraceOp::comm_create;
  if (cat == "fault") return TraceOp::fault;
  return TraceOp::phase;  // "phase" and future categories
}

}  // namespace

LoadedTrace load_chrome_trace(std::string_view json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) {
    throw Error(Errc::invalid_argument,
                "not a trace export — the document has no "
                "'traceEvents' array");
  }

  // Interning pool: deque never relocates, so const char* stay valid.
  auto pool = std::make_shared<std::deque<std::string>>();
  std::map<std::string, const char*, std::less<>> interned;
  const auto intern = [&](const std::string& name) {
    const auto it = interned.find(name);
    if (it != interned.end()) return it->second;
    pool->push_back(name);
    const char* ptr = pool->back().c_str();
    interned.emplace(name, ptr);
    return ptr;
  };

  std::map<int, RankTrace> ranks;
  const auto rank_of = [&](int tid) -> RankTrace& {
    RankTrace& r = ranks[tid];
    r.world_rank = tid;
    return r;
  };

  for (const JsonValue& event : events->items()) {
    const std::string& ph = event.at("ph").as_string();
    const int tid = static_cast<int>(event.at("tid").as_int());
    if (ph == "M") {
      if (event.at("name").as_string() == "thread_name") {
        rank_of(tid).track = event.at("args").at("name").as_string();
      }
      continue;
    }
    const bool span = ph == "X";
    if (!span && ph != "i") continue;  // overlay / flow events etc.
    const JsonValue* cat = event.find("cat");
    const std::string& cat_name =
        cat != nullptr ? cat->as_string() : std::string{};
    if (cat_name == "critical") continue;  // our own overlay, re-loaded
    TraceEvent e;
    e.t_start_ns = us_to_ns(event.at("ts"));
    e.t_end_ns = e.t_start_ns;
    if (span) {
      const JsonValue* dur = event.find("dur");
      if (dur != nullptr) e.t_end_ns += us_to_ns(*dur);
    }
    e.span = span;
    const std::string& name = event.at("name").as_string();
    e.op = op_of(cat_name, name, span);
    e.name = intern(name);
    e.peer = static_cast<rank_t>(arg_i64(event, "peer", any_source));
    e.context = static_cast<context_t>(
        arg_u64(event, "context", kWorldContext));
    e.tag = static_cast<tag_t>(arg_i64(event, "tag", any_tag));
    e.bytes = arg_u64(event, "bytes", 0);
    e.flow = arg_u64(event, "flow", 0);
    rank_of(tid).events.push_back(e);
  }

  LoadedTrace out;
  out.names = std::shared_ptr<const void>(pool, pool.get());

  // The "mph" rollup: drop counts (overflow soundness), backlog high
  // water, counters, and the comm stats the report embeds.
  const JsonValue* mph = doc.find("mph");
  if (mph != nullptr) {
    const JsonValue* wildcard = mph->find("wildcardRecvs");
    if (wildcard != nullptr) {
      out.report.comm.wildcard_recvs =
          static_cast<std::uint64_t>(wildcard->as_int());
    }
    const JsonValue* contexts = mph->find("contexts");
    if (contexts != nullptr && contexts->type() == JsonValue::Type::array) {
      for (const JsonValue& c : contexts->items()) {
        out.report.comm.messages_by_context.emplace_back(
            static_cast<context_t>(c.at("context").as_int()),
            static_cast<std::uint64_t>(c.at("messages").as_int()));
      }
    }
    const JsonValue* rollup_ranks = mph->find("ranks");
    if (rollup_ranks != nullptr &&
        rollup_ranks->type() == JsonValue::Type::array) {
      for (const JsonValue& rr : rollup_ranks->items()) {
        const JsonValue* rank = rr.find("rank");
        if (rank == nullptr) continue;
        RankTrace& r = rank_of(static_cast<int>(rank->as_int()));
        const JsonValue* dropped = rr.find("dropped");
        if (dropped != nullptr) {
          r.dropped = static_cast<std::uint64_t>(dropped->as_int());
        }
        const JsonValue* qhw = rr.find("queueHighWater");
        if (qhw != nullptr) {
          r.queue_high_water = static_cast<std::uint64_t>(qhw->as_int());
        }
        const JsonValue* counters = rr.find("counters");
        if (counters != nullptr &&
            counters->type() == JsonValue::Type::array) {
          for (const JsonValue& c : counters->items()) {
            r.counters.emplace_back(
                c.at("name").as_string(),
                static_cast<std::uint64_t>(c.at("value").as_int()));
          }
        }
      }
    }
  }

  out.report.ranks.reserve(ranks.size());
  for (auto& [tid, r] : ranks) out.report.ranks.push_back(std::move(r));
  return out;
}

LoadedTrace load_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(Errc::invalid_argument,
                "mph_prof: cannot read trace file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return load_chrome_trace(text.str());
}

}  // namespace minimpi::prof
