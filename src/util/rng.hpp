// rng.hpp — deterministic, splittable pseudo-random numbers for workload
// generators and property tests.  We use xoshiro256** (public-domain
// algorithm by Blackman & Vigna): fast, high quality, and — unlike
// std::mt19937 — cheap to seed reproducibly per (test, rank, instance).
#pragma once

#include <array>
#include <cstdint>

namespace mph::util {

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator so it can
/// drive <random> distributions, but also offers convenience helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 so that nearby seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    const unsigned __int128 product =
        static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Derive an independent child stream, e.g. one per rank.
  [[nodiscard]] Rng split(std::uint64_t stream_id) noexcept {
    return Rng((*this)() ^ (stream_id * 0xd1342543de82ef95ULL + 1));
  }

  /// The full 256-bit generator state, for checkpointing: restoring via
  /// set_state resumes the stream exactly where state() captured it.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) s_[i] = s[static_cast<std::size_t>(i)];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// ---------------------------------------------------------------------------
// Entropy guard
// ---------------------------------------------------------------------------
// All nondeterminism in a job is supposed to flow from one seed (JobOptions::
// seed) so that verification runs replay byte-identically.  Code that wants a
// fresh, non-reproducible seed must draw it through fresh_entropy_seed();
// while the guard is armed (`mph verify` arms it for the whole exploration)
// that call throws instead of silently breaking replay determinism.

/// Arm or disarm the process-wide fresh-entropy ban.
void forbid_fresh_entropy(bool forbid) noexcept;

/// True while fresh (non-reproducible) entropy is banned.
[[nodiscard]] bool fresh_entropy_forbidden() noexcept;

/// The sanctioned source of non-reproducible seeds (std::random_device).
/// Throws std::runtime_error while the ban is armed.
[[nodiscard]] std::uint64_t fresh_entropy_seed();

/// RAII arm/restore of the fresh-entropy ban.
class ScopedEntropyBan {
 public:
  ScopedEntropyBan() : previous_(fresh_entropy_forbidden()) {
    forbid_fresh_entropy(true);
  }
  ScopedEntropyBan(const ScopedEntropyBan&) = delete;
  ScopedEntropyBan& operator=(const ScopedEntropyBan&) = delete;
  ~ScopedEntropyBan() { forbid_fresh_entropy(previous_); }

 private:
  bool previous_;
};

}  // namespace mph::util
