// racer/atomic.hpp — the mph::atomic shim: one atomics vocabulary, two
// compilations.
//
// Every lock-free structure in src/minimpi declares its shared words as
// mph::atomic<T> (and mph::atomic_flag) instead of std::atomic.  In a
// normal build the shim is a pure alias — mph::atomic<T> IS std::atomic<T>,
// zero overhead, identical codegen — the same null-branch discipline as the
// checker/scheduler/tracer/metrics hook layers, applied at compile time.
//
// When a translation unit is compiled with -DMPH_RACER=1 (the minimpi_racer
// library that tests/racer and tools/mph_racer link), the shim becomes an
// instrumented class: every load, store, RMW and CAS is routed through the
// mph_racer exploration engine (racer/engine.hpp), which owns the value,
// enumerates which store each load may read from under the C++11 memory
// model, and replays decision prefixes.  Outside an active exploration the
// instrumented shim falls back to a real std::atomic, so racer-compiled
// code still runs normally.
//
// The static lint (`mph lint`) enforces that src/minimpi declares
// no raw std::atomic outside this header — the shim is only a model-checking
// seam if the lock-free layer actually goes through it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(MPH_RACER) && MPH_RACER

namespace minimpi::racer {

class Engine;

/// Memory orders as the engine models them (consume is treated as acquire).
enum class Mo : std::uint8_t { relaxed, acquire, release, acq_rel, seq_cst };

/// Read-modify-write flavors the shim needs.
enum class Rmw : std::uint8_t { exchange, add, sub, and_, or_, xor_ };

/// The engine exploring on this thread, or null when no exploration is
/// active (then the shim uses its std::atomic fallback).
[[nodiscard]] Engine* current_engine() noexcept;

// Engine entry points used by the shim (defined in engine.cpp).  `fallback`
// is the object's current fallback value, used to seed the modeled location
// on first touch when the object predates the execution.
std::uint64_t shim_load(Engine& e, const void* obj, Mo order,
                        std::uint64_t fallback);
void shim_store(Engine& e, const void* obj, std::uint64_t value, Mo order,
                std::uint64_t fallback);
std::uint64_t shim_rmw(Engine& e, const void* obj, Rmw op,
                       std::uint64_t operand, unsigned width, Mo order,
                       std::uint64_t fallback);
bool shim_cas(Engine& e, const void* obj, std::uint64_t& expected,
              std::uint64_t desired, Mo success, Mo failure,
              std::uint64_t fallback);
void shim_init(Engine& e, const void* obj, std::uint64_t value);
void shim_destroy(Engine& e, const void* obj) noexcept;

/// Name the modeled location behind an atomic object in traces ("flag",
/// "stamp[0]", ...).  No-op when no exploration is active.
void name_location(const void* obj, const char* name);

[[nodiscard]] constexpr Mo to_mo(std::memory_order order) noexcept {
  switch (order) {
    case std::memory_order_relaxed: return Mo::relaxed;
    case std::memory_order_consume:
    case std::memory_order_acquire: return Mo::acquire;
    case std::memory_order_release: return Mo::release;
    case std::memory_order_acq_rel: return Mo::acq_rel;
    case std::memory_order_seq_cst: return Mo::seq_cst;
  }
  return Mo::seq_cst;
}

}  // namespace minimpi::racer

namespace mph {

/// Instrumented drop-in for std::atomic<T>.  T must fit the engine's
/// 64-bit word model (everything the lock-free layer stores does).
///
/// Unlike std::atomic, the shim's operations are NOT noexcept: under an
/// active engine they may throw LitmusFailure/RacerError to unwind the
/// litmus body (step-limit trips, model errors).  The destructor stays
/// non-throwing — shim_destroy swallows engine errors.
template <class T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "mph::atomic models values as 64-bit words");

 public:
  atomic() : atomic(T{}) {}
  // NOLINTNEXTLINE(google-explicit-constructor) — std::atomic converts too.
  atomic(T desired) : fallback_(desired) {
    if (auto* e = minimpi::racer::current_engine()) {
      minimpi::racer::shim_init(*e, this, to_bits(desired));
    }
  }
  ~atomic() {
    if (auto* e = minimpi::racer::current_engine()) {
      minimpi::racer::shim_destroy(*e, this);
    }
  }

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_load(
          *e, this, minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.load(order);
  }

  void store(T desired,
             std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      minimpi::racer::shim_store(*e, this, to_bits(desired),
                                 minimpi::racer::to_mo(order),
                                 fallback_bits());
      return;
    }
    fallback_.store(desired, order);
  }

  T exchange(T desired,
             std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_rmw(
          *e, this, minimpi::racer::Rmw::exchange, to_bits(desired), sizeof(T),
          minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.exchange(desired, order);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      std::uint64_t bits = to_bits(expected);
      const bool ok = minimpi::racer::shim_cas(
          *e, this, bits, to_bits(desired), minimpi::racer::to_mo(success),
          minimpi::racer::to_mo(failure), fallback_bits());
      expected = from_bits(bits);
      return ok;
    }
    return fallback_.compare_exchange_strong(expected, desired, success,
                                             failure);
  }

  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    // The model has no spurious failures; weak == strong under exploration.
    return compare_exchange_strong(expected, desired, success, failure);
  }

  template <class U = T,
            class = std::enable_if_t<std::is_integral_v<U> &&
                                     !std::is_same_v<U, bool>>>
  T fetch_add(T arg,
              std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_rmw(
          *e, this, minimpi::racer::Rmw::add, to_bits(arg), sizeof(T),
          minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.fetch_add(arg, order);
  }

  template <class U = T,
            class = std::enable_if_t<std::is_integral_v<U> &&
                                     !std::is_same_v<U, bool>>>
  T fetch_sub(T arg,
              std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_rmw(
          *e, this, minimpi::racer::Rmw::sub, to_bits(arg), sizeof(T),
          minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.fetch_sub(arg, order);
  }

  template <class U = T,
            class = std::enable_if_t<std::is_integral_v<U> &&
                                     !std::is_same_v<U, bool>>>
  T fetch_or(T arg,
             std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_rmw(
          *e, this, minimpi::racer::Rmw::or_, to_bits(arg), sizeof(T),
          minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.fetch_or(arg, order);
  }

  template <class U = T,
            class = std::enable_if_t<std::is_integral_v<U> &&
                                     !std::is_same_v<U, bool>>>
  T fetch_and(T arg,
              std::memory_order order = std::memory_order_seq_cst) {
    if (auto* e = minimpi::racer::current_engine()) {
      return from_bits(minimpi::racer::shim_rmw(
          *e, this, minimpi::racer::Rmw::and_, to_bits(arg), sizeof(T),
          minimpi::racer::to_mo(order), fallback_bits()));
    }
    return fallback_.fetch_and(arg, order);
  }

  // NOLINTNEXTLINE(google-explicit-constructor) — std::atomic converts too.
  operator T() const { return load(); }
  T operator=(T desired) {  // NOLINT(misc-unconventional-assign-operator)
    store(desired);
    return desired;
  }

 private:
  static std::uint64_t to_bits(T value) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    return bits;
  }
  static T from_bits(std::uint64_t bits) noexcept {
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }
  std::uint64_t fallback_bits() const noexcept {
    return to_bits(fallback_.load(std::memory_order_relaxed));
  }

  mutable std::atomic<T> fallback_;
};

/// Instrumented drop-in for std::atomic_flag (test-and-set semantics only).
class atomic_flag {
 public:
  atomic_flag() noexcept = default;

  atomic_flag(const atomic_flag&) = delete;
  atomic_flag& operator=(const atomic_flag&) = delete;

  bool test_and_set(
      std::memory_order order = std::memory_order_seq_cst) {
    return word_.exchange(1, order) != 0;
  }
  void clear(std::memory_order order = std::memory_order_seq_cst) {
    word_.store(0, order);
  }
  [[nodiscard]] bool test(
      std::memory_order order = std::memory_order_seq_cst) const {
    return word_.load(order) != 0;
  }

 private:
  atomic<std::uint8_t> word_{0};
};

}  // namespace mph

#else  // !MPH_RACER

namespace mph {

// Plain build: the shim is std::atomic, exactly.
template <class T>
using atomic = std::atomic<T>;  // racer-lint: allow(std::atomic) — the shim
using atomic_flag = std::atomic_flag;  // racer-lint: allow(std::atomic)

}  // namespace mph

namespace minimpi::racer {

/// No-op outside racer builds so shared code can name locations freely.
inline void name_location(const void*, const char*) {}

}  // namespace minimpi::racer

#endif  // MPH_RACER
