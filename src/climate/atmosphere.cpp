#include "src/climate/models.hpp"

namespace mph::climate {

namespace {
/// Radiative equilibrium temperature profile: warm equator, cold poles.
double radiative_t(const ClimateConfig& cfg, const Grid2D& grid, int row) {
  const double c = std::cos(grid.latitude(row));
  return cfg.solar_pole + (cfg.solar_equator - cfg.solar_pole) * c;
}
}  // namespace

Atmosphere::Atmosphere(const ClimateConfig& cfg, const minimpi::Comm& comm)
    : ComponentModel(cfg, comm, cfg.atm_nlon, cfg.atm_nlat, "temperature",
                     "SST import") {
  // Start at radiative equilibrium with a small zonal perturbation so the
  // diffusion term has work to do from step one.
  state_.fill([&](int i, int j) {
    return radiative_t(cfg_, grid_, j) +
           0.5 * std::sin(grid_.longitude(i) * 3.0);
  });
}

void Atmosphere::step() {
  state_.halo_exchange(comm_, tags::t_atm_to_cpl);
  const int rows = state_.local_rows();
  const int nlon = state_.nlon();
  std::vector<double> next(static_cast<std::size_t>(rows * nlon));
  for (int r = 0; r < rows; ++r) {
    const double teq = radiative_t(cfg_, grid_, state_.row_offset() + r);
    for (int i = 0; i < nlon; ++i) {
      const double t = state_.at(r, i);
      double tendency = cfg_.atm_relax * (teq - t) +
                        cfg_.atm_diffusion * state_.laplacian(r, i);
      if (have_import_) {
        tendency += cfg_.air_sea_coupling * (import_.at(r, i) - t);
      }
      next[static_cast<std::size_t>(r * nlon + i)] = t + cfg_.dt * tendency;
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < nlon; ++i) {
      state_.at(r, i) = next[static_cast<std::size_t>(r * nlon + i)];
    }
  }
  if (acc_.size() == 0) {
    acc_ = coupler::FieldAccumulator(static_cast<std::size_t>(rows * nlon));
  }
  acc_.add(next);
}

std::vector<double> Atmosphere::export_temperature_mean() {
  if (acc_.samples() == 0) return export_temperature();
  RowBlockField2D mean = state_;
  const std::vector<double> local_mean = acc_.drain();
  const int nlon = mean.nlon();
  for (int r = 0; r < mean.local_rows(); ++r) {
    for (int i = 0; i < nlon; ++i) {
      mean.at(r, i) = local_mean[static_cast<std::size_t>(r * nlon + i)];
    }
  }
  return mean.gather(comm_);
}

}  // namespace mph::climate
