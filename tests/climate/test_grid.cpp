// Grid2D geometry and RowBlockField2D parallel field operations.
#include "src/climate/grid.hpp"

#include <gtest/gtest.h>

#include "src/minimpi/launcher.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph::climate;
using minimpi::Comm;

namespace {
void run_ok(int nprocs, std::function<void(const Comm&)> entry) {
  const minimpi::JobReport report = minimpi::run_spmd(
      nprocs,
      [&](const Comm& world, const minimpi::ExecEnv&) { entry(world); },
      mph::testing::test_job_options());
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}
}  // namespace

TEST(Grid2D, GeometryBasics) {
  const Grid2D grid(8, 4);
  EXPECT_EQ(grid.size(), 32);
  // Latitudes symmetric about the equator.
  EXPECT_NEAR(grid.latitude(0), -grid.latitude(3), 1e-12);
  EXPECT_NEAR(grid.latitude(1), -grid.latitude(2), 1e-12);
  // Longitudes span [0, 2π).
  EXPECT_GT(grid.longitude(0), 0.0);
  EXPECT_LT(grid.longitude(7), 2 * kPi);
  // Equatorial cells are the largest.
  EXPECT_GT(grid.cell_area(1), grid.cell_area(0));
  // Total area ≈ 4π; coarse 4-band midpoint quadrature overshoots ~2.6%.
  EXPECT_NEAR(grid.total_area(), 4 * kPi, 0.35);
  // A fine grid converges to 4π.
  const Grid2D fine(16, 64);
  EXPECT_NEAR(fine.total_area(), 4 * kPi, 0.002);
}

TEST(Grid2D, InvalidDimensions) {
  EXPECT_THROW(Grid2D(0, 4), std::invalid_argument);
  EXPECT_THROW(Grid2D(4, -1), std::invalid_argument);
}

TEST(RowBlockField2D, RowsPartitionAcrossRanks) {
  run_ok(3, [](const Comm& world) {
    const Grid2D grid(6, 7);
    const RowBlockField2D field(grid, world);
    // 7 rows over 3 ranks: 3, 2, 2.
    const int expect_rows = world.rank() == 0 ? 3 : 2;
    EXPECT_EQ(field.local_rows(), expect_rows);
    const int expect_offset =
        world.rank() == 0 ? 0 : 3 + 2 * (world.rank() - 1);
    EXPECT_EQ(field.row_offset(), expect_offset);
  });
}

TEST(RowBlockField2D, TooManyRanksRejected) {
  run_ok(4, [](const Comm& world) {
    const Grid2D grid(4, 2);
    EXPECT_THROW(RowBlockField2D(grid, world), std::invalid_argument);
  });
}

TEST(RowBlockField2D, HaloExchangeMovesNeighbourRows) {
  run_ok(3, [](const Comm& world) {
    const Grid2D grid(4, 6);
    RowBlockField2D field(grid, world);
    // Value encodes the global row.
    field.fill([](int, int j) { return 100.0 * j; });
    field.halo_exchange(world, 5);
    const int lo = field.row_offset();
    const int hi = lo + field.local_rows() - 1;
    for (int i = 0; i < 4; ++i) {
      // South halo: global row lo-1 (or copy of row lo at the pole).
      const double expect_south = lo == 0 ? 100.0 * lo : 100.0 * (lo - 1);
      EXPECT_DOUBLE_EQ(field.halo(-1, i), expect_south);
      // North halo: global row hi+1 (or copy of row hi at the pole).
      const double expect_north = hi == 5 ? 100.0 * hi : 100.0 * (hi + 1);
      EXPECT_DOUBLE_EQ(field.halo(field.local_rows(), i), expect_north);
    }
  });
}

TEST(RowBlockField2D, LaplacianOfConstantIsZero) {
  run_ok(2, [](const Comm& world) {
    const Grid2D grid(5, 4);
    RowBlockField2D field(grid, world);
    field.fill([](int, int) { return 7.0; });
    field.halo_exchange(world, 1);
    for (int r = 0; r < field.local_rows(); ++r) {
      for (int i = 0; i < 5; ++i) {
        EXPECT_NEAR(field.laplacian(r, i), 0.0, 1e-12);
      }
    }
  });
}

TEST(RowBlockField2D, LaplacianPeriodicInLongitude) {
  run_ok(1, [](const Comm& world) {
    const Grid2D grid(4, 3);
    RowBlockField2D field(grid, world);
    // Spike at column 0 of row 1.
    field.fill([](int i, int j) { return (i == 0 && j == 1) ? 1.0 : 0.0; });
    field.halo_exchange(world, 1);
    // Column 3 (west neighbour of 0 through periodicity) sees the spike.
    EXPECT_DOUBLE_EQ(field.laplacian(1, 3), 1.0);
    EXPECT_DOUBLE_EQ(field.laplacian(1, 1), 1.0);
    EXPECT_DOUBLE_EQ(field.laplacian(1, 0), -4.0);
  });
}

TEST(RowBlockField2D, GatherAssemblesGlobalField) {
  run_ok(3, [](const Comm& world) {
    const Grid2D grid(3, 5);
    RowBlockField2D field(grid, world);
    field.fill([&grid](int i, int j) {
      return static_cast<double>(grid.index(i, j));
    });
    const std::vector<double> full = field.gather(world, 0);
    if (world.rank() == 0) {
      ASSERT_EQ(full.size(), 15u);
      for (std::size_t k = 0; k < 15; ++k) {
        EXPECT_DOUBLE_EQ(full[k], static_cast<double>(k));
      }
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

TEST(RowBlockField2D, ScatterDistributesGlobalField) {
  run_ok(2, [](const Comm& world) {
    const Grid2D grid(2, 4);
    RowBlockField2D field(grid, world);
    std::vector<double> full;
    if (world.rank() == 0) {
      full.resize(8);
      for (std::size_t k = 0; k < 8; ++k) {
        full[k] = 10.0 * static_cast<double>(k);
      }
    }
    field.scatter(world, full, 0);
    for (int r = 0; r < field.local_rows(); ++r) {
      for (int i = 0; i < 2; ++i) {
        const int g = (field.row_offset() + r) * 2 + i;
        EXPECT_DOUBLE_EQ(field.at(r, i), 10.0 * g);
      }
    }
  });
}

TEST(RowBlockField2D, GatherScatterRoundTrip) {
  run_ok(3, [](const Comm& world) {
    const Grid2D grid(4, 6);
    RowBlockField2D field(grid, world);
    field.fill([](int i, int j) { return std::sin(i + 2.0 * j); });
    const std::vector<double> full = field.gather(world, 0);
    RowBlockField2D copy(grid, world);
    copy.scatter(world, full, 0);
    for (int r = 0; r < field.local_rows(); ++r) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(copy.at(r, i), field.at(r, i));
      }
    }
  });
}

TEST(RowBlockField2D, GlobalMeanIsAreaWeighted) {
  run_ok(2, [](const Comm& world) {
    const Grid2D grid(6, 4);
    RowBlockField2D field(grid, world);
    field.fill([](int, int) { return 3.5; });
    EXPECT_NEAR(field.global_mean(grid, world), 3.5, 1e-12);
    // A field loaded at the poles must mean less than one at the equator.
    RowBlockField2D polar(grid, world);
    polar.fill([](int, int j) { return (j == 0 || j == 3) ? 1.0 : 0.0; });
    RowBlockField2D tropical(grid, world);
    tropical.fill([](int, int j) { return (j == 1 || j == 2) ? 1.0 : 0.0; });
    EXPECT_LT(polar.global_mean(grid, world),
              tropical.global_mean(grid, world));
  });
}
