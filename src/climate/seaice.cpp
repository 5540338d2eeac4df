#include "src/climate/models.hpp"

namespace mph::climate {

SeaIce::SeaIce(const ClimateConfig& cfg, const minimpi::Comm& comm)
    : ComponentModel(cfg, comm, cfg.ocn_nlon, cfg.ocn_nlat, "thickness",
                     "SST import") {
  // Start with thin ice near the poles.
  state_.fill([&](int, int j) {
    const double lat = std::abs(grid_.latitude(j));
    return lat > 1.2 ? 0.5 : 0.0;
  });
}

void SeaIce::step() {
  // Zero-layer thermodynamics: grow below freezing, melt above.
  const int rows = state_.local_rows();
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < state_.nlon(); ++i) {
      const double sst = have_import_ ? import_.at(r, i) : cfg_.freezing_point;
      const double growth =
          cfg_.ice_growth * std::max(0.0, cfg_.freezing_point - sst);
      const double melt =
          cfg_.ice_melt * std::max(0.0, sst - cfg_.freezing_point);
      state_.at(r, i) =
          std::max(0.0, state_.at(r, i) + cfg_.dt * (growth - melt));
    }
  }
}

std::vector<double> SeaIce::export_fraction() const {
  // Fraction = h / (h + h0): thin ice covers little of the cell.
  constexpr double kH0 = 0.5;
  RowBlockField2D frac = state_;
  const int rows = frac.local_rows();
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < frac.nlon(); ++i) {
      const double h = frac.at(r, i);
      frac.at(r, i) = h / (h + kH0);
    }
  }
  return frac.gather(comm_);
}

}  // namespace mph::climate
