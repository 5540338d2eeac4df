// rebalance.hpp — weight-driven repartitioning of a coupled field
// (paper §9 further work (b), "dynamic re-allocation of processors").
//
// The pieces:
//   * Rebalancer — a pure decision box: feed it the measured per-rank step
//     times of the current decomposition; it smooths per-rank throughput
//     with an EWMA and, once the measured imbalance crosses the trigger,
//     proposes a new weighted Decomp (the laik_setweight idea).
//   * repartition() — the data move: shuffle a field from one Decomp to
//     another over the SAME communicator (every rank both sends and
//     receives; the Router cannot do this — its joint-rank numbering
//     assumes disjoint source/destination rank ranges).
//   * weights_from_metrics() — bridge from mph_mon: derive per-rank
//     throughput weights from a MetricsSnapshot's blocked-time gauges.
//
// Everything here is deterministic from its inputs, so all ranks that feed
// identical measurements reach identical decisions without communication —
// the same property the handshake's resolve_layout relies on.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/coupler/decomp.hpp"
#include "src/minimpi/comm.hpp"
#include "src/minimpi/metrics.hpp"
#include "src/minimpi/prof/profile.hpp"

namespace mph::coupler {

struct RebalancePolicy {
  /// Propose a new decomposition only when max(step time) / mean(step
  /// time) of the current one reaches this factor.  1.0 rebalances on any
  /// imbalance; the default tolerates 20% before paying the shuffle.
  double trigger_imbalance = 1.2;

  /// EWMA factor applied to per-rank throughput observations: weight_new =
  /// smoothing * observed + (1 - smoothing) * weight_old.  1.0 trusts only
  /// the latest measurement; smaller values damp oscillation between two
  /// layouts ("ping-pong") when step times are noisy.
  double smoothing = 0.5;
};

/// Per-rank throughput (indices per second) of `current` under the
/// measured `step_seconds` — the raw observation the Rebalancer smooths.
/// A rank with zero local work or non-positive time gets the mean
/// throughput of the others (no information, assume average capacity).
[[nodiscard]] std::vector<double> throughput_weights(
    const Decomp& current, std::span<const double> step_seconds);

/// Derive throughput weights from an mph_mon snapshot: a rank's busy time
/// is the snapshot window minus its blocked_ns gauge, and its throughput
/// is local work / busy seconds.  `world_ranks[i]` names the world rank
/// holding decomposition rank i (ranks absent from the snapshot get the
/// mean weight).
[[nodiscard]] std::vector<double> weights_from_metrics(
    const minimpi::MetricsSnapshot& snapshot, const Decomp& current,
    std::span<const minimpi::rank_t> world_ranks);

/// Derive weights from causal blame instead of raw busy time: a rank of a
/// component with critical-path share s gets weight max(0.05, 1 - s), so
/// Decomp::weighted moves work away from the component that actually
/// bounds the job and toward the components with slack.  Blame is
/// aggregated per *component* (the critical path may stick to one rank of
/// a multi-rank slow component; its siblings are just as overloaded).
/// Ranks absent from the profile get the mean weight, mirroring
/// weights_from_metrics.  Deterministic from the profile.
[[nodiscard]] std::vector<double> weights_from_critical_path(
    const minimpi::prof::Profile& profile, const Decomp& current,
    std::span<const minimpi::rank_t> world_ranks);

/// The decision box.  Stateful only for the EWMA-smoothed weights; feeding
/// identical measurement sequences on every rank keeps the instances in
/// lock-step.
class Rebalancer {
 public:
  explicit Rebalancer(RebalancePolicy policy = {}) : policy_(policy) {}

  /// Fold one measurement round (per-rank wall seconds for the same amount
  /// of timestepping under `current`) into the smoothed weights, and
  /// propose a weighted decomposition when the measured imbalance crosses
  /// the policy trigger.  Returns nullopt while balanced enough — or when
  /// the proposal equals `current` (nothing to move).
  [[nodiscard]] std::optional<Decomp> propose(
      const Decomp& current, std::span<const double> step_seconds);

  /// The mph_watch bridge: fold pre-derived throughput weights (e.g.
  /// weights_from_metrics of the snapshot an imbalance alert fired on)
  /// into the EWMA and propose when the *predicted* per-rank times under
  /// `current` — local work divided by smoothed weight — cross the
  /// trigger.  Same determinism contract as propose(): ranks feeding
  /// identical weight vectors reach identical proposals.
  [[nodiscard]] std::optional<Decomp> propose_from_weights(
      const Decomp& current, std::span<const double> observed_weights);

  /// Smoothed per-rank weights accumulated so far (empty before the first
  /// propose()).
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

  /// max/mean step-time ratio of the last propose() round (0 before).
  [[nodiscard]] double last_imbalance() const noexcept {
    return last_imbalance_;
  }

 private:
  /// Fold one observation into the EWMA weights (the first round adopts
  /// it outright).
  void smooth(const std::vector<double>& observed);
  /// The shared trigger: record max/mean of the per-rank `times` as the
  /// imbalance and, once it crosses the policy trigger, propose the
  /// decomposition weighted by the smoothed weights.
  [[nodiscard]] std::optional<Decomp> propose_if_imbalanced(
      const Decomp& current, std::span<const double> times);

  RebalancePolicy policy_;
  std::vector<double> weights_;
  double last_imbalance_ = 0.0;
};

/// Move a field between two decompositions of the same global index space
/// over ONE communicator: every rank sends the intersections of its old
/// segments with each peer's new segments, then receives in ascending peer
/// order.  Sends are buffered (mailbox substrate), so the all-send-then-
/// all-receive order cannot deadlock.  Collective over `comm`; `local`
/// must hold `from.local_size(me)` values, and the returned vector holds
/// `to.local_size(me)`.
[[nodiscard]] std::vector<double> repartition(const minimpi::Comm& comm,
                                              const Decomp& from,
                                              const Decomp& to,
                                              std::span<const double> local,
                                              minimpi::tag_t tag);

}  // namespace mph::coupler
