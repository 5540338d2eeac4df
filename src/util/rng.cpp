#include "src/util/rng.hpp"

#include <atomic>
#include <random>
#include <stdexcept>

namespace mph::util {

namespace {
std::atomic<bool> g_forbid_fresh_entropy{false};
}  // namespace

void forbid_fresh_entropy(bool forbid) noexcept {
  g_forbid_fresh_entropy.store(forbid, std::memory_order_release);
}

bool fresh_entropy_forbidden() noexcept {
  return g_forbid_fresh_entropy.load(std::memory_order_acquire);
}

std::uint64_t fresh_entropy_seed() {
  if (fresh_entropy_forbidden()) {
    throw std::runtime_error(
        "fresh_entropy_seed: unseeded entropy requested while schedule "
        "verification is active; route randomness through the job seed "
        "(JobOptions::seed / mph verify --seed) instead");
  }
  std::random_device device;
  return (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

}  // namespace mph::util
