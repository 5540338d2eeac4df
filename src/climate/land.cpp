#include "src/climate/models.hpp"

namespace mph::climate {

Land::Land(const ClimateConfig& cfg, const minimpi::Comm& comm)
    : ComponentModel(cfg, comm, cfg.atm_nlon, cfg.atm_nlat, "moisture",
                     "temperature import") {
  state_.fill([](int, int) { return 1.0; });  // uniformly moist bucket
}

void Land::step() {
  // Bucket hydrology: dW/dt = P(T) - beta * W, with precipitation rising
  // with temperature above freezing (a crude Clausius-Clapeyron stand-in).
  const int rows = state_.local_rows();
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < state_.nlon(); ++i) {
      const double t = have_import_ ? import_.at(r, i) : 10.0;
      const double precip = cfg_.land_precip_rate * std::max(0.0, t);
      const double evap = cfg_.land_beta * state_.at(r, i);
      state_.at(r, i) =
          std::max(0.0, state_.at(r, i) + cfg_.dt * (precip - evap));
    }
  }
}

std::vector<double> Land::export_evaporation() const {
  // Evaporation field (beta * W), gathered to the component root.
  RowBlockField2D evap = state_;
  const int rows = evap.local_rows();
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < evap.nlon(); ++i) {
      evap.at(r, i) *= cfg_.land_beta;
    }
  }
  return evap.gather(comm_);
}

}  // namespace mph::climate
