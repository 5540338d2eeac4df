// Weight-driven rebalancing: Decomp::weighted's largest-remainder
// properties, throughput_weights / weights_from_metrics derivation, the
// Rebalancer's EWMA + trigger decision box, and repartition() round trips
// over one communicator.
#include "src/coupler/rebalance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/coupler/decomp.hpp"
#include "src/minimpi/launcher.hpp"
#include "src/minimpi/metrics.hpp"

using namespace mph::coupler;
using minimpi::Comm;

namespace {

std::vector<std::int64_t> sizes_of(const Decomp& d) {
  std::vector<std::int64_t> sizes;
  for (int r = 0; r < d.nranks(); ++r) sizes.push_back(d.local_size(r));
  return sizes;
}

TEST(WeightedDecomp, EqualWeightsMatchBlock) {
  const std::vector<double> w = {1.0, 1.0, 1.0};
  EXPECT_EQ(Decomp::weighted(10, w), Decomp::block(10, 3));
  EXPECT_EQ(Decomp::weighted(9, w), Decomp::block(9, 3));
}

TEST(WeightedDecomp, SizesProportionalAndExactlyCovering) {
  const std::vector<double> w = {3.0, 1.0, 1.0, 3.0};
  const Decomp d = Decomp::weighted(80, w);
  EXPECT_EQ(sizes_of(d), (std::vector<std::int64_t>{30, 10, 10, 30}));
  // Contiguous ascending blocks: each rank owns one segment, gapless.
  std::int64_t cursor = 0;
  for (int r = 0; r < d.nranks(); ++r) {
    ASSERT_EQ(d.segments(r).size(), 1u);
    EXPECT_EQ(d.segments(r).front().gstart, cursor);
    cursor += d.segments(r).front().length;
  }
  EXPECT_EQ(cursor, 80);
}

TEST(WeightedDecomp, LargestRemainderRoundingIsDeterministic) {
  // Shares: 10 * {2, 1, 1}/4 = {5, 2.5, 2.5}; the single leftover goes to
  // the largest remainder, ties breaking toward the lower rank.
  const std::vector<double> w = {2.0, 1.0, 1.0};
  const Decomp d = Decomp::weighted(10, w);
  EXPECT_EQ(sizes_of(d), (std::vector<std::int64_t>{5, 3, 2}));
  const std::vector<std::int64_t> sizes = sizes_of(d);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0}), 10);
  // Same inputs, same answer.
  EXPECT_EQ(Decomp::weighted(10, w), d);
}

TEST(WeightedDecomp, ZeroWeightRankGetsNoIndices) {
  const std::vector<double> w = {0.0, 1.0, 1.0};
  const Decomp d = Decomp::weighted(10, w);
  EXPECT_EQ(d.local_size(0), 0);
  EXPECT_EQ(d.local_size(1) + d.local_size(2), 10);
}

TEST(ThroughputWeights, WorkPerSecondWithMeanBackfill) {
  const Decomp d = Decomp::block(100, 4);  // 25 indices per rank
  const std::vector<double> times = {1.0, 2.0, 0.0, 2.0};
  const std::vector<double> w = throughput_weights(d, times);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 25.0);
  EXPECT_DOUBLE_EQ(w[1], 12.5);
  // Rank 2 reported no usable time: it gets the mean of the measured ones.
  EXPECT_DOUBLE_EQ(w[2], (25.0 + 12.5 + 12.5) / 3.0);
  EXPECT_DOUBLE_EQ(w[3], 12.5);
}

TEST(ThroughputWeights, SizeMismatchThrows) {
  const Decomp d = Decomp::block(10, 2);
  const std::vector<double> times = {1.0, 1.0, 1.0};
  EXPECT_THROW((void)throughput_weights(d, times), std::invalid_argument);
}

TEST(WeightsFromMetrics, BusyTimeDrivesThroughput) {
  const Decomp d = Decomp::block(30, 3);  // 10 indices per rank
  minimpi::MetricsSnapshot snap;
  snap.t_ns = 1'000'000'000;  // 1 s window
  minimpi::RankMetrics r0;
  r0.world_rank = 0;
  r0.blocked_ns = 500'000'000;  // busy 0.5 s -> throughput 20
  minimpi::RankMetrics r1;
  r1.world_rank = 1;
  r1.blocked_ns = 0;  // busy 1 s -> throughput 10
  snap.ranks = {r0, r1};

  const std::vector<minimpi::rank_t> world_ranks = {0, 1, 7};  // 7 absent
  const std::vector<double> w = weights_from_metrics(snap, d, world_ranks);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 20.0);
  EXPECT_DOUBLE_EQ(w[1], 10.0);
  EXPECT_DOUBLE_EQ(w[2], 15.0);  // mean of the measured ranks
}

TEST(WeightsFromCriticalPath, BlameShareInvertsIntoExactWeights) {
  // Synthetic profile: ocean owns 75% of the critical path, atmosphere
  // 25%.  Weights are 1 - share (floored at 0.05), so Decomp::weighted
  // splits 100 indices exactly 25 / 75 toward the unblamed component.
  minimpi::prof::Profile profile;
  profile.path_total_ns = 1000;
  minimpi::prof::PathSegment ocean_seg;
  ocean_seg.world_rank = 0;
  ocean_seg.track = "ocean:0";
  ocean_seg.kind = minimpi::prof::SegmentKind::compute;
  ocean_seg.t_start_ns = 0;
  ocean_seg.t_end_ns = 750;
  minimpi::prof::PathSegment atm_seg;
  atm_seg.world_rank = 1;
  atm_seg.track = "atmosphere:0";
  atm_seg.kind = minimpi::prof::SegmentKind::recv_wait;
  atm_seg.t_start_ns = 750;
  atm_seg.t_end_ns = 1000;
  profile.path = {ocean_seg, atm_seg};
  minimpi::prof::RankProfile r0;
  r0.world_rank = 0;
  r0.track = "ocean:0";
  minimpi::prof::RankProfile r1;
  r1.world_rank = 1;
  r1.track = "atmosphere:0";
  profile.ranks = {r0, r1};

  const Decomp current = Decomp::block(100, 2);
  const std::vector<minimpi::rank_t> world_ranks = {0, 1};
  const std::vector<double> w =
      weights_from_critical_path(profile, current, world_ranks);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 0.25);  // ocean blamed 75%
  EXPECT_DOUBLE_EQ(w[1], 0.75);  // atmosphere blamed 25%
  EXPECT_EQ(sizes_of(Decomp::weighted(100, w)),
            (std::vector<std::int64_t>{25, 75}));
  // Deterministic: same profile, same weights.
  EXPECT_EQ(weights_from_critical_path(profile, current, world_ranks), w);
}

TEST(WeightsFromCriticalPath, FullBlameHitsTheFloorAndAbsentRanksGetMean) {
  // One component owns the whole path: its weight floors at 0.05 rather
  // than starving to zero; a rank missing from the profile gets the mean.
  minimpi::prof::Profile profile;
  profile.path_total_ns = 1000;
  minimpi::prof::PathSegment seg;
  seg.world_rank = 0;
  seg.track = "solo:0";
  seg.kind = minimpi::prof::SegmentKind::compute;
  seg.t_start_ns = 0;
  seg.t_end_ns = 1000;
  profile.path = {seg};
  minimpi::prof::RankProfile r0;
  r0.world_rank = 0;
  r0.track = "solo:0";
  profile.ranks = {r0};

  const Decomp current = Decomp::block(30, 2);
  const std::vector<minimpi::rank_t> world_ranks = {0, 9};  // 9 unprofiled
  const std::vector<double> w =
      weights_from_critical_path(profile, current, world_ranks);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 0.05);
  EXPECT_DOUBLE_EQ(w[1], 0.05);  // mean of the single measured weight
}

TEST(WeightsFromCriticalPath, SizeMismatchThrows) {
  const minimpi::prof::Profile profile;
  const Decomp d = Decomp::block(10, 2);
  const std::vector<minimpi::rank_t> world_ranks = {0, 1, 2};
  EXPECT_THROW((void)weights_from_critical_path(profile, d, world_ranks),
               std::invalid_argument);
}

TEST(Rebalancer, BalancedTimesProposeNothing) {
  Rebalancer reb;
  const Decomp current = Decomp::block(40, 4);
  const std::vector<double> times = {1.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(reb.propose(current, times).has_value());
  EXPECT_DOUBLE_EQ(reb.last_imbalance(), 1.0);
  // The observation round still primed the smoothed weights.
  ASSERT_EQ(reb.weights().size(), 4u);
  EXPECT_DOUBLE_EQ(reb.weights()[0], 10.0);
}

TEST(Rebalancer, ImbalanceBeyondTriggerShiftsWorkToFastRanks) {
  Rebalancer reb(RebalancePolicy{.trigger_imbalance = 1.2, .smoothing = 1.0});
  const Decomp current = Decomp::block(60, 3);  // 20 each
  // Rank 2 is twice as slow: imbalance = 2 / (4/3) = 1.5 >= 1.2.
  const std::vector<double> times = {1.0, 1.0, 2.0};
  const auto proposal = reb.propose(current, times);
  ASSERT_TRUE(proposal.has_value());
  EXPECT_DOUBLE_EQ(reb.last_imbalance(), 1.5);
  // Throughputs 20/20/10: the slow rank's share shrinks, total preserved.
  EXPECT_EQ(sizes_of(*proposal), (std::vector<std::int64_t>{24, 24, 12}));
}

TEST(Rebalancer, EwmaSmoothsAcrossRounds) {
  Rebalancer reb(RebalancePolicy{.trigger_imbalance = 10.0, .smoothing = 0.5});
  const Decomp current = Decomp::block(40, 2);  // 20 each
  const std::vector<double> round1 = {1.0, 1.0};  // throughput 20 / 20
  const std::vector<double> round2 = {1.0, 2.0};  // throughput 20 / 10
  EXPECT_FALSE(reb.propose(current, round1).has_value());  // trigger never met
  EXPECT_FALSE(reb.propose(current, round2).has_value());
  ASSERT_EQ(reb.weights().size(), 2u);
  EXPECT_DOUBLE_EQ(reb.weights()[0], 20.0);
  EXPECT_DOUBLE_EQ(reb.weights()[1], 0.5 * 10.0 + 0.5 * 20.0);
}

TEST(Rebalancer, NoProposalWhenWeightedLayoutEqualsCurrent) {
  // Trigger 1.0 fires on perfectly balanced times, but equal weights
  // reproduce the current block layout — nothing to move, so nullopt.
  Rebalancer reb(RebalancePolicy{.trigger_imbalance = 1.0, .smoothing = 1.0});
  const Decomp current = Decomp::block(40, 4);
  const std::vector<double> times = {1.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(reb.propose(current, times).has_value());
  EXPECT_DOUBLE_EQ(reb.last_imbalance(), 1.0);
}

TEST(Repartition, MovesDataAndRoundTripsUnderSpmd) {
  const Decomp from = Decomp::block(40, 4);
  const std::vector<double> weights = {3.0, 1.0, 1.0, 3.0};
  const Decomp to = Decomp::weighted(40, weights);
  const minimpi::JobReport report = minimpi::run_spmd(
      4, [&](const Comm& world, const minimpi::ExecEnv&) {
        const int me = world.rank();
        std::vector<double> local(
            static_cast<std::size_t>(from.local_size(me)));
        for (std::size_t l = 0; l < local.size(); ++l) {
          const std::int64_t global =
              from.to_global(me, static_cast<std::int64_t>(l));
          local[l] = 2.0 * static_cast<double>(global) + 0.5;
        }

        const std::vector<double> moved =
            repartition(world, from, to, local, /*tag=*/31);
        ASSERT_EQ(moved.size(), static_cast<std::size_t>(to.local_size(me)));
        for (std::size_t l = 0; l < moved.size(); ++l) {
          const std::int64_t g = to.to_global(me, static_cast<std::int64_t>(l));
          EXPECT_DOUBLE_EQ(moved[l], 2.0 * static_cast<double>(g) + 0.5)
              << "global index " << g;
        }

        // Moving back restores the original local data exactly.
        const std::vector<double> back =
            repartition(world, to, from, moved, /*tag=*/32);
        EXPECT_EQ(back, local);
      });
  ASSERT_TRUE(report.ok) << report.abort_reason;
}

TEST(Repartition, RejectsMismatchedShapes) {
  const minimpi::JobReport report = minimpi::run_spmd(
      2, [&](const Comm& world, const minimpi::ExecEnv&) {
        const Decomp a = Decomp::block(10, 2);
        const Decomp b = Decomp::block(12, 2);
        std::vector<double> local(
            static_cast<std::size_t>(a.local_size(world.rank())));
        EXPECT_THROW((void)repartition(world, a, b, local, 7),
                     std::invalid_argument);
        const Decomp c = Decomp::block(10, 3);
        EXPECT_THROW((void)repartition(world, a, c, local, 8),
                     std::invalid_argument);
      });
  ASSERT_TRUE(report.ok) << report.abort_reason;
}

}  // namespace
