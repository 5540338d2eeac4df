#include "src/climate/models.hpp"

namespace mph::climate {

Ocean::Ocean(const ClimateConfig& cfg, const minimpi::Comm& comm)
    : ComponentModel(cfg, comm, cfg.ocn_nlon, cfg.ocn_nlat, "SST",
                     "flux import") {
  // Initial SST: a gentle equator-to-pole gradient, cooler than the
  // atmosphere's radiative profile so coupling produces a visible drift.
  state_.fill([&](int /*i*/, int j) {
    return 0.6 * cfg_.solar_equator * std::cos(grid_.latitude(j)) - 4.0;
  });
}

void Ocean::step() {
  state_.halo_exchange(comm_, tags::sst_to_cpl);
  const int rows = state_.local_rows();
  const int nlon = state_.nlon();
  std::vector<double> next(static_cast<std::size_t>(rows * nlon));
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < nlon; ++i) {
      const double t = state_.at(r, i);
      double tendency = cfg_.ocn_diffusion * state_.laplacian(r, i);
      if (have_import_) {
        tendency += import_.at(r, i) / cfg_.ocn_heat_capacity;
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

std::vector<double> Ocean::export_sst_mean() {
  if (acc_.samples() == 0) return export_sst();
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

void Ocean::nudge(double delta) {
  const int rows = state_.local_rows();
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < state_.nlon(); ++i) {
      state_.at(r, i) += delta;
    }
  }
}

}  // namespace mph::climate
