// models.hpp — the toy component models of the coupled climate system:
// atmosphere, ocean, land, sea ice.  Each is a self-contained, parallel
// model on its own component communicator, exchanging only boundary fields
// — exactly the program-component shape MPH integrates (paper §1: CCSM
// "consists of an atmosphere model, an ocean model, a sea-ice model and a
// land-surface model", interacting "through a flux coupler component").
//
// The physics is deliberately simple (diffusion–relaxation energy
// balances) but the software structure is real: halo exchanges inside
// components, root-mediated exchanges between them (paper §6: "information
// exchange between different components can be conveniently handled by the
// rank-0 processors in each component").
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/climate/grid.hpp"
#include "src/coupler/accumulator.hpp"
#include "src/minimpi/comm.hpp"

namespace mph::climate {

/// Shared configuration every component of a coupled run agrees on.
struct ClimateConfig {
  // Grids: atmosphere/land share one grid, ocean/ice another.
  int atm_nlon = 48;
  int atm_nlat = 24;
  int ocn_nlon = 72;
  int ocn_nlat = 36;

  // Time stepping.
  int steps_per_interval = 4;  ///< model steps between couplings
  int intervals = 8;           ///< coupling intervals in the run
  double dt = 0.05;            ///< nondimensional step

  // Physics (nondimensional rates, chosen for stable, visible dynamics).
  double solar_equator = 30.0;     ///< radiative equilibrium T at equator
  double solar_pole = -10.0;       ///< ... and at the poles
  double atm_relax = 0.8;          ///< relaxation toward radiative T
  double atm_diffusion = 0.4;      ///< atmospheric heat diffusion
  double ocn_diffusion = 0.15;     ///< ocean heat diffusion
  double ocn_heat_capacity = 5.0;  ///< slab ocean thermal inertia
  double air_sea_coupling = 1.2;   ///< flux coefficient c in c(Ta - SST)
  double land_beta = 0.3;          ///< bucket evaporation rate
  double land_precip_rate = 0.1;   ///< precipitation per degree above 0
  double ice_growth = 0.1;         ///< ice growth rate below freezing
  double ice_melt = 0.2;           ///< ice melt rate above freezing
  double freezing_point = -2.0;    ///< seawater freezing temperature
};

/// Message tags of the coupling protocol (world-context, name-addressed).
namespace tags {
inline constexpr int t_atm_to_cpl = 101;   ///< atmosphere T (atm grid)
inline constexpr int sst_to_cpl = 102;     ///< ocean SST (ocn grid)
inline constexpr int evap_to_cpl = 103;    ///< land evaporation (atm grid)
inline constexpr int ice_to_cpl = 104;     ///< ice fraction (ocn grid)
inline constexpr int sst_to_atm = 111;     ///< SST regridded to atm grid
inline constexpr int flux_to_ocn = 112;    ///< net surface flux (ocn grid)
inline constexpr int t_atm_to_land = 113;  ///< atmosphere T (atm grid)
inline constexpr int sst_to_ice = 114;     ///< SST (ocn grid)
inline constexpr int stat_up = 121;        ///< instance -> statistics
inline constexpr int stat_down = 122;      ///< statistics -> instance
inline constexpr int steer_field = 131;    ///< steering work repartition
}  // namespace tags

/// What the four component models share: the configuration, the component
/// communicator, one row-decomposed prognostic field on the model's own
/// grid, and the field last imported from the coupler.  Those two fields
/// are the whole checkpointed state of a model (DESIGN.md §13), so the
/// checkpoint accessors are written once, here.
class ComponentModel {
 public:
  [[nodiscard]] const Grid2D& grid() const noexcept { return grid_; }

  /// Area-weighted global mean of the prognostic field (collective).
  [[nodiscard]] double global_mean() const {
    return state_.global_mean(grid_, comm_);
  }

  // Checkpoint support: gather state to the component root for saving
  // (empty off-root), restore communication-free from full global fields.
  [[nodiscard]] std::vector<double> export_state_primary() const {
    return state_.gather(comm_);
  }
  [[nodiscard]] std::vector<double> export_state_import() const {
    return import_.gather(comm_);
  }
  [[nodiscard]] bool has_import() const noexcept { return have_import_; }
  /// Every rank passes the same full global fields and keeps only its own
  /// rows.  Halo rows are left stale; step() refreshes them first.
  void restore_state(std::span<const double> primary_full,
                     std::span<const double> import_full, bool has_import) {
    restore_field(state_, primary_full, state_name_);
    if (has_import) restore_field(import_, import_full, import_name_);
    have_import_ = has_import;
  }

 protected:
  /// `state_name`/`import_name` name the two fields in restore errors.
  ComponentModel(const ClimateConfig& cfg, const minimpi::Comm& comm,
                 int nlon, int nlat, const char* state_name,
                 const char* import_name)
      : cfg_(cfg), comm_(comm), grid_(nlon, nlat), state_(grid_, comm_),
        import_(grid_, comm_), state_name_(state_name),
        import_name_(import_name) {}

  /// Scatter a full field from the component root into import_
  /// (collective; `full_on_root` is read on the root only).
  void set_import(std::span<const double> full_on_root) {
    import_.scatter(comm_, full_on_root);
    have_import_ = true;
  }

  ClimateConfig cfg_;
  minimpi::Comm comm_;
  Grid2D grid_;
  RowBlockField2D state_;   ///< the prognostic field
  RowBlockField2D import_;  ///< the field last imported from the coupler
  bool have_import_ = false;

 private:
  void restore_field(RowBlockField2D& field, std::span<const double> full,
                     const char* what) const {
    if (static_cast<std::int64_t>(full.size()) != grid_.size()) {
      throw std::invalid_argument(
          std::string("restore_state: ") + what + " holds " +
          std::to_string(full.size()) + " values, grid has " +
          std::to_string(grid_.size()));
    }
    field.fill([&](int i, int j) {
      return full[static_cast<std::size_t>(grid_.index(i, j))];
    });
  }

  const char* state_name_;
  const char* import_name_;
};

/// Atmosphere: temperature relaxed toward a latitude-dependent radiative
/// equilibrium, diffused, and nudged toward the imported SST (state_ is
/// the air temperature, import_ the SST on the atm grid).
class Atmosphere : public ComponentModel {
 public:
  Atmosphere(const ClimateConfig& cfg, const minimpi::Comm& comm);

  /// One model step (collective: performs a halo exchange).
  void step();

  /// Import the sea surface temperature, already on the atm grid
  /// (full field significant on component root only).
  void import_sst(std::span<const double> sst_full_on_root) {
    set_import(sst_full_on_root);
  }

  /// Gather my instantaneous temperature onto the component root.
  [[nodiscard]] std::vector<double> export_temperature() const {
    return state_.gather(comm_);
  }

  /// Gather the *time mean* temperature over the steps since the last
  /// call (the CCSM coupling rule: the coupler sees interval means, not
  /// samples).  Collective; resets the accumulator.
  [[nodiscard]] std::vector<double> export_temperature_mean();

 private:
  coupler::FieldAccumulator acc_;  ///< per-step accumulation for coupling
};

/// Slab ocean: SST diffused and forced by the imported surface flux
/// (state_ is the SST, import_ the net surface flux).
class Ocean : public ComponentModel {
 public:
  Ocean(const ClimateConfig& cfg, const minimpi::Comm& comm);

  void step();
  void import_flux(std::span<const double> flux_full_on_root) {
    set_import(flux_full_on_root);
  }
  [[nodiscard]] std::vector<double> export_sst() const {
    return state_.gather(comm_);
  }
  /// Interval-mean SST (see Atmosphere::export_temperature_mean).
  [[nodiscard]] std::vector<double> export_sst_mean();

  /// Perturb the diffusivity (used by ensemble instances via MPH
  /// arguments) and nudge the whole state (dynamic ensemble control).
  void scale_diffusivity(double factor) { cfg_.ocn_diffusion *= factor; }
  void nudge(double delta);

 private:
  coupler::FieldAccumulator acc_;  ///< per-step accumulation for coupling
};

/// Land bucket hydrology on the atmosphere grid: soil moisture fed by
/// temperature-dependent precipitation, drained by evaporation (state_ is
/// the soil moisture, import_ the air temperature).
class Land : public ComponentModel {
 public:
  Land(const ClimateConfig& cfg, const minimpi::Comm& comm);

  void step();
  void import_temperature(std::span<const double> t_full_on_root) {
    set_import(t_full_on_root);
  }
  [[nodiscard]] std::vector<double> export_evaporation() const;
};

/// Zero-layer thermodynamic sea ice on the ocean grid (state_ is the ice
/// thickness, import_ the SST).
class SeaIce : public ComponentModel {
 public:
  SeaIce(const ClimateConfig& cfg, const minimpi::Comm& comm);

  void step();
  void import_sst(std::span<const double> sst_full_on_root) {
    set_import(sst_full_on_root);
  }
  /// Ice fraction in [0,1) per cell, gathered to the component root.
  [[nodiscard]] std::vector<double> export_fraction() const;
  [[nodiscard]] double global_mean_thickness() const { return global_mean(); }
};

}  // namespace mph::climate
