// racer/model.hpp — the data model mph_racer explores.
//
// The engine models the fragment of the C++11 memory model the lock-free
// layer actually uses:
//
//   * Each atomic object is a Location with a modification order (`mo`) —
//     the sequence of Stores in the order they executed.  Modeling mo as
//     execution order is a deliberate simplification: it forbids
//     load-buffering executions (a load can never read a store that has not
//     executed yet), which matches every hardware the repo targets and every
//     compiler mapping in practice, and keeps exploration replayable.
//   * Happens-before is tracked with vector clocks (one component per
//     modeled thread).  A release-ish store snapshots its thread's clock;
//     an acquire-ish load that reads it joins that snapshot.  RMWs continue
//     the release sequence of the store they read (C++20 rule: only RMWs
//     extend a release sequence, same-thread relaxed stores do not).
//   * A load may read any store not hidden by coherence: at least as new
//     (in mo) as the newest store the thread has already read or written at
//     that location, and at least as new as the newest store that
//     happens-before the load.  seq_cst is approximated by a single total
//     order = execution order: an sc load additionally cannot read anything
//     older than the latest sc store to the location.  Fences are not
//     modeled (the lock-free layer uses none; the lint keeps it that way).
//
// Everything here is plain data; the exploration machinery lives in
// engine.hpp/engine.cpp over the shared util::DecisionTree.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/minimpi/racer/atomic.hpp"
#include "src/util/decision_tree.hpp"

namespace minimpi::racer {

/// Modeled threads: tid 0 is the exploration driver (the litmus body's own
/// thread); tids 1..kMaxThreads-1 are workers spawned via run_threads().
inline constexpr int kMaxThreads = 8;

/// Vector clock over modeled threads.
struct Clock {
  std::array<std::uint32_t, kMaxThreads> c{};

  void join(const Clock& o) noexcept {
    for (int i = 0; i < kMaxThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
};

/// One write in a location's modification order.
struct Store {
  std::uint64_t value = 0;
  int tid = -1;           ///< writing thread; -1 = prehistory (initial value)
  std::uint32_t seq = 0;  ///< writer's clock component at the store
  bool sc = false;        ///< memory_order_seq_cst store
  Clock release;          ///< clock an acquire load of this store joins
};

/// Happens-before test: does `s` happen before a thread with clock `k`?
/// Prehistory stores happen before everything.
[[nodiscard]] inline bool store_hb(const Store& s, const Clock& k) noexcept {
  return s.tid < 0 || k.c[s.tid] >= s.seq;
}

/// One atomic object the execution has touched.
struct Location {
  std::string name;        ///< "a<N>" by first touch, or racer::name_location
  std::vector<Store> mo;   ///< modification order; [0] is the initial store
  int last_sc_store = 0;   ///< mo index of the latest seq_cst store (0: none)
};

/// One recorded branch point of an execution: a util::DecisionTree Branch
/// whose shape is 't' (thread choice), 'r' (reads-from) or 'c' (CAS
/// outcome) and whose note names the location or the candidate threads.
/// The stack of Decisions is the schedule: replaying the same stack
/// reproduces the same execution.
using Decision = mph::util::Branch;

/// One applied atomic operation, pre-formatted for counterexample traces.
struct StepEvent {
  int tid = 0;
  std::string text;
};

[[nodiscard]] inline bool is_acquire(Mo o) noexcept {
  return o == Mo::acquire || o == Mo::acq_rel || o == Mo::seq_cst;
}
[[nodiscard]] inline bool is_release(Mo o) noexcept {
  return o == Mo::release || o == Mo::acq_rel || o == Mo::seq_cst;
}

[[nodiscard]] inline const char* mo_name(Mo o) noexcept {
  switch (o) {
    case Mo::relaxed: return "relaxed";
    case Mo::acquire: return "acquire";
    case Mo::release: return "release";
    case Mo::acq_rel: return "acq_rel";
    case Mo::seq_cst: return "seq_cst";
  }
  return "?";
}

}  // namespace minimpi::racer
