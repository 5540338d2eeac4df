#include "src/coupler/rebalance.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mph::coupler {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("rebalance: " + what);
}

/// Ascending [start, end) overlaps of two sorted segment lists (the same
/// two-pointer sweep the Router uses).
std::vector<std::pair<std::int64_t, std::int64_t>> intersect(
    const std::vector<Segment>& a, const std::vector<Segment>& b) {
  std::vector<std::pair<std::int64_t, std::int64_t>> overlaps;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].gstart, b[j].gstart);
    const std::int64_t hi = std::min(a[i].gend(), b[j].gend());
    if (lo < hi) overlaps.emplace_back(lo, hi);
    if (a[i].gend() < b[j].gend()) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlaps;
}

/// Replace non-positive entries with the mean of the positive ones (all
/// equal weights when nothing was measured at all).
void fill_missing_with_mean(std::vector<double>& weights) {
  double sum = 0.0;
  int known = 0;
  for (const double w : weights) {
    if (w > 0.0) {
      sum += w;
      ++known;
    }
  }
  const double mean = known > 0 ? sum / known : 1.0;
  for (double& w : weights) {
    if (w <= 0.0) w = mean;
  }
}

}  // namespace

std::vector<double> throughput_weights(const Decomp& current,
                                       std::span<const double> step_seconds) {
  if (static_cast<int>(step_seconds.size()) != current.nranks()) {
    fail("got " + std::to_string(step_seconds.size()) +
         " step times for a decomposition over " +
         std::to_string(current.nranks()) + " ranks");
  }
  std::vector<double> weights(step_seconds.size(), 0.0);
  for (int r = 0; r < current.nranks(); ++r) {
    const double t = step_seconds[static_cast<std::size_t>(r)];
    const std::int64_t work = current.local_size(r);
    if (t > 0.0 && work > 0) {
      weights[static_cast<std::size_t>(r)] = static_cast<double>(work) / t;
    }
  }
  fill_missing_with_mean(weights);
  return weights;
}

std::vector<double> weights_from_metrics(
    const minimpi::MetricsSnapshot& snapshot, const Decomp& current,
    std::span<const minimpi::rank_t> world_ranks) {
  if (static_cast<int>(world_ranks.size()) != current.nranks()) {
    fail("got " + std::to_string(world_ranks.size()) +
         " world ranks for a decomposition over " +
         std::to_string(current.nranks()) + " ranks");
  }
  std::vector<double> weights(world_ranks.size(), 0.0);
  for (int r = 0; r < current.nranks(); ++r) {
    const minimpi::rank_t world = world_ranks[static_cast<std::size_t>(r)];
    for (const minimpi::RankMetrics& row : snapshot.ranks) {
      if (row.world_rank != world) continue;
      // Busy time = snapshot window minus time spent blocked in waits; a
      // rank that finishes its local work faster blocks longer, so its
      // throughput (work per busy second) comes out higher.
      if (snapshot.t_ns > row.blocked_ns) {
        const double busy_s =
            static_cast<double>(snapshot.t_ns - row.blocked_ns) * 1e-9;
        const std::int64_t work = current.local_size(r);
        if (busy_s > 0.0 && work > 0) {
          weights[static_cast<std::size_t>(r)] =
              static_cast<double>(work) / busy_s;
        }
      }
      break;
    }
  }
  fill_missing_with_mean(weights);
  return weights;
}

std::vector<double> weights_from_critical_path(
    const minimpi::prof::Profile& profile, const Decomp& current,
    std::span<const minimpi::rank_t> world_ranks) {
  if (static_cast<int>(world_ranks.size()) != current.nranks()) {
    fail("got " + std::to_string(world_ranks.size()) +
         " world ranks for a decomposition over " +
         std::to_string(current.nranks()) + " ranks");
  }
  const std::vector<minimpi::prof::ComponentBlame> blame =
      profile.components();
  std::vector<double> weights(world_ranks.size(), 0.0);
  for (int r = 0; r < current.nranks(); ++r) {
    const minimpi::rank_t world = world_ranks[static_cast<std::size_t>(r)];
    for (const minimpi::prof::RankProfile& rp : profile.ranks) {
      if (rp.world_rank != world) continue;
      const std::string component =
          minimpi::TraceReport::component_of(rp.track);
      for (const minimpi::prof::ComponentBlame& cb : blame) {
        if (cb.component != component) continue;
        // Invert blame into capacity headroom: the component that owns
        // the critical path needs relief proportional to its share.  The
        // 0.05 floor keeps every rank schedulable (a fully blamed
        // component still holds some work, so its measurements keep
        // flowing next round).
        weights[static_cast<std::size_t>(r)] =
            std::max(0.05, 1.0 - cb.share);
        break;
      }
      break;
    }
  }
  fill_missing_with_mean(weights);
  return weights;
}

void Rebalancer::smooth(const std::vector<double>& observed) {
  if (weights_.size() != observed.size()) {
    weights_ = observed;  // first round: adopt the observation outright
    return;
  }
  const double a = std::clamp(policy_.smoothing, 0.0, 1.0);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = a * observed[i] + (1.0 - a) * weights_[i];
  }
}

std::optional<Decomp> Rebalancer::propose_if_imbalanced(
    const Decomp& current, std::span<const double> times) {
  double max_t = 0.0;
  double sum_t = 0.0;
  for (const double t : times) {
    max_t = std::max(max_t, t);
    sum_t += t;
  }
  const double mean_t = sum_t / static_cast<double>(times.size());
  last_imbalance_ = mean_t > 0.0 ? max_t / mean_t : 0.0;
  if (last_imbalance_ < policy_.trigger_imbalance) return std::nullopt;

  Decomp proposal = Decomp::weighted(current.global_size(),
                                     std::span<const double>(weights_));
  if (proposal == current) return std::nullopt;
  return proposal;
}

std::optional<Decomp> Rebalancer::propose(
    const Decomp& current, std::span<const double> step_seconds) {
  smooth(throughput_weights(current, step_seconds));
  return propose_if_imbalanced(current, step_seconds);
}

std::optional<Decomp> Rebalancer::propose_from_weights(
    const Decomp& current, std::span<const double> observed_weights) {
  if (static_cast<int>(observed_weights.size()) != current.nranks()) {
    fail("got " + std::to_string(observed_weights.size()) +
         " weights for a decomposition over " +
         std::to_string(current.nranks()) + " ranks");
  }
  std::vector<double> observed(observed_weights.begin(),
                               observed_weights.end());
  fill_missing_with_mean(observed);
  smooth(observed);

  // Predicted per-rank time under the current layout: work over smoothed
  // throughput — the same quantity propose() measures directly.
  std::vector<double> predicted(static_cast<std::size_t>(current.nranks()));
  for (int r = 0; r < current.nranks(); ++r) {
    const double w = weights_[static_cast<std::size_t>(r)];
    predicted[static_cast<std::size_t>(r)] =
        w > 0.0 ? static_cast<double>(current.local_size(r)) / w : 0.0;
  }
  return propose_if_imbalanced(current, predicted);
}

std::vector<double> repartition(const minimpi::Comm& comm, const Decomp& from,
                                const Decomp& to, std::span<const double> local,
                                minimpi::tag_t tag) {
  if (from.global_size() != to.global_size()) {
    fail("repartition between different global sizes (" +
         std::to_string(from.global_size()) + " vs " +
         std::to_string(to.global_size()) + ")");
  }
  const int nranks = comm.size();
  if (from.nranks() != nranks || to.nranks() != nranks) {
    fail("decompositions cover " + std::to_string(from.nranks()) + " / " +
         std::to_string(to.nranks()) + " ranks on a communicator of " +
         std::to_string(nranks));
  }
  const int me = comm.rank();
  if (local.size() < static_cast<std::size_t>(from.local_size(me))) {
    fail("local span holds " + std::to_string(local.size()) +
         " values; this rank owns " + std::to_string(from.local_size(me)) +
         " under the source decomposition");
  }

  std::vector<double> result(
      static_cast<std::size_t>(to.local_size(me)), 0.0);

  // Phase 1: send my old data to its new owners (buffered, non-blocking),
  // keeping the self-intersection as a plain local copy.
  std::vector<std::pair<std::int64_t, std::int64_t>> self_overlaps;
  for (int p = 0; p < nranks; ++p) {
    const auto overlaps = intersect(from.segments(me), to.segments(p));
    if (overlaps.empty()) continue;
    if (p == me) {
      self_overlaps = overlaps;
      continue;
    }
    std::vector<double> payload;
    for (const auto& [lo, hi] : overlaps) {
      for (std::int64_t g = lo; g < hi; ++g) {
        payload.push_back(
            local[static_cast<std::size_t>(from.to_local(me, g))]);
      }
    }
    comm.send(std::span<const double>(payload), p, tag);
  }
  for (const auto& [lo, hi] : self_overlaps) {
    for (std::int64_t g = lo; g < hi; ++g) {
      result[static_cast<std::size_t>(to.to_local(me, g))] =
          local[static_cast<std::size_t>(from.to_local(me, g))];
    }
  }

  // Phase 2: receive my new data from its old owners, ascending peer order
  // (both sides enumerate overlaps in ascending global order, so payload
  // layouts agree).
  for (int p = 0; p < nranks; ++p) {
    if (p == me) continue;
    const auto overlaps = intersect(to.segments(me), from.segments(p));
    if (overlaps.empty()) continue;
    std::int64_t count = 0;
    for (const auto& [lo, hi] : overlaps) count += hi - lo;
    std::vector<double> payload(static_cast<std::size_t>(count));
    comm.recv(std::span<double>(payload), p, tag);
    std::size_t cursor = 0;
    for (const auto& [lo, hi] : overlaps) {
      for (std::int64_t g = lo; g < hi; ++g) {
        result[static_cast<std::size_t>(to.to_local(me, g))] =
            payload[cursor++];
      }
    }
  }
  return result;
}

}  // namespace mph::coupler
