// Conservative regridding: exactness on constants, conservation of the
// integral, refinement/coarsening, and 2-D tensor-product behaviour.
#include "src/coupler/regrid.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/util/rng.hpp"

using namespace mph::coupler;

namespace {
double integral(std::span<const double> cells) {
  // Uniform grid over [0,1): integral = mean.
  const double sum = std::accumulate(cells.begin(), cells.end(), 0.0);
  return sum / static_cast<double>(cells.size());
}
}  // namespace

TEST(Regrid1D, IdentityWhenSameSize) {
  const Regrid1D map(5, 5);
  const std::vector<double> src{1, 2, 3, 4, 5};
  std::vector<double> dst(5);
  map.apply(src, dst);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(dst[i], src[i], 1e-12);
}

TEST(Regrid1D, ConstantFieldPreserved) {
  const Regrid1D map(7, 3);
  const std::vector<double> src(7, 2.5);
  std::vector<double> dst(3);
  map.apply(src, dst);
  for (double v : dst) EXPECT_NEAR(v, 2.5, 1e-12);
}

TEST(Regrid1D, CoarseningAveragesExactMultiples) {
  const Regrid1D map(6, 3);  // each dst cell = mean of 2 src cells
  const std::vector<double> src{0, 2, 4, 6, 8, 10};
  std::vector<double> dst(3);
  map.apply(src, dst);
  EXPECT_NEAR(dst[0], 1.0, 1e-12);
  EXPECT_NEAR(dst[1], 5.0, 1e-12);
  EXPECT_NEAR(dst[2], 9.0, 1e-12);
}

TEST(Regrid1D, RefinementCopiesExactMultiples) {
  const Regrid1D map(3, 6);
  const std::vector<double> src{1, 2, 3};
  std::vector<double> dst(6);
  map.apply(src, dst);
  EXPECT_NEAR(dst[0], 1.0, 1e-12);
  EXPECT_NEAR(dst[1], 1.0, 1e-12);
  EXPECT_NEAR(dst[4], 3.0, 1e-12);
}

TEST(Regrid1D, ConservesIntegralOnRandomFields) {
  mph::util::Rng rng(31);
  for (const auto& [n_src, n_dst] :
       {std::pair{10, 7}, std::pair{7, 10}, std::pair{48, 36},
        std::pair{3, 17}}) {
    const Regrid1D map(n_src, n_dst);
    std::vector<double> src(static_cast<std::size_t>(n_src));
    for (auto& v : src) v = rng.uniform(-5, 5);
    std::vector<double> dst(static_cast<std::size_t>(n_dst));
    map.apply(src, dst);
    EXPECT_NEAR(integral(src), integral(dst), 1e-12)
        << n_src << " -> " << n_dst;
  }
}

TEST(Regrid1D, WeightsPartitionUnity) {
  // Every destination cell's weights must sum to 1 (consistency).
  const Regrid1D map(13, 5);
  std::vector<double> sums(5, 0.0);
  for (const Weight& w : map.weights()) {
    sums[static_cast<std::size_t>(w.dst)] += w.value;
  }
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(Regrid1D, InvalidInputs) {
  EXPECT_THROW(Regrid1D(0, 3), std::invalid_argument);
  const Regrid1D map(4, 2);
  std::vector<double> bad(3), dst(2);
  EXPECT_THROW(map.apply(bad, dst), std::invalid_argument);
}

TEST(Regrid2D, ConstantPreservedAcrossResolutions) {
  const Regrid2D map(8, 6, 5, 9);
  const std::vector<double> src(48, -3.25);
  std::vector<double> dst(45);
  map.apply(src, dst);
  for (double v : dst) EXPECT_NEAR(v, -3.25, 1e-12);
}

TEST(Regrid2D, ConservesIntegralOnRandomFields) {
  mph::util::Rng rng(32);
  const Regrid2D map(12, 8, 9, 11);
  std::vector<double> src(96);
  for (auto& v : src) v = rng.uniform(0, 10);
  std::vector<double> dst(99);
  map.apply(src, dst);
  EXPECT_NEAR(integral(src), integral(dst), 1e-12);
}

TEST(Regrid2D, SeparableStructure) {
  // A field varying only in x must stay constant along y after remap.
  const Regrid2D map(6, 4, 3, 8);
  std::vector<double> src(24);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 6; ++x) {
      src[static_cast<std::size_t>(y * 6 + x)] = x;
    }
  }
  std::vector<double> dst(24);
  map.apply(src, dst);
  for (int x = 0; x < 3; ++x) {
    for (int y = 1; y < 8; ++y) {
      EXPECT_NEAR(dst[static_cast<std::size_t>(y * 3 + x)],
                  dst[static_cast<std::size_t>(x)], 1e-12);
    }
  }
}

TEST(Regrid2D, RoundTripCoarseFineCoarseIsIdentityOnMultiples) {
  // Exact-multiple refinement then coarsening restores the original.
  const Regrid2D up(4, 4, 8, 8);
  const Regrid2D down(8, 8, 4, 4);
  mph::util::Rng rng(33);
  std::vector<double> src(16);
  for (auto& v : src) v = rng.uniform(-1, 1);
  std::vector<double> fine(64), back(16);
  up.apply(src, fine);
  down.apply(fine, back);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(back[i], src[i], 1e-12);
}
