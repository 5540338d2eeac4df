// trace_load.hpp — reconstruct a TraceReport from its Chrome-JSON export.
//
// mph_prof works post mortem: a job writes TraceReport::to_chrome_json to
// disk, and the profiler loads it back here.  The loader understands
// exactly the schema DESIGN.md §11 pins (thread_name metadata for tracks,
// ph:"X" spans / ph:"i" instants with cat + args, the "mph" rollup for
// per-rank drop counts) and ignores unknown keys, per the additive-only
// contract.  Events whose fields are missing default rather than throw —
// a trace from an older build simply loads with flow == 0 everywhere and
// the profiler reports the unresolved edges.
//
// TraceEvent::name points to static storage in live traces; a loaded
// report's names live in an interning pool carried alongside, so keep the
// LoadedTrace alive as long as the report (or anything derived from its
// events) is used.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "src/minimpi/trace.hpp"

namespace minimpi::prof {

struct LoadedTrace {
  TraceReport report;
  /// Keep-alive for the interned event-name strings the report points at.
  std::shared_ptr<const void> names;
};

/// Parse a Chrome trace-event document produced by to_chrome_json.
/// Throws minimpi::Error when the document is not a trace export and
/// std::runtime_error (from the JSON parser) when it is not JSON at all.
[[nodiscard]] LoadedTrace load_chrome_trace(std::string_view json_text);

}  // namespace minimpi::prof
