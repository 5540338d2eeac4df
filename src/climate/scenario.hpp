// scenario.hpp — reusable drivers that wire the toy models into complete
// coupled applications through MPH.  The same component functions run
// identically under SCME, MCME, or MCSE wiring (paper §2: the integration
// mode is a deployment decision, not a model-code decision) — integration
// tests, examples, and the E6/E9 benchmarks all call these.
//
// All five roles of the coupled system (atmosphere, ocean, land, ice and
// the coupler) run one coupling-interval loop; a role supplies only its
// interval body and its checkpointed state.  Recovery and steering are
// opt-in through two trailing pointers, each a single null test when off:
//   * `store` (a recover::CheckpointStore) checkpoints every interval and
//     restores from the step all components agree on (DESIGN.md §13);
//   * `steering` (a SteeringSpec) adds live rebalancing (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/climate/fluxcoupler.hpp"
#include "src/coupler/rebalance.hpp"
#include "src/climate/models.hpp"
#include "src/climate/statistics.hpp"
#include "src/mph/mph.hpp"
#include "src/mph/recover.hpp"

namespace mph::climate {

/// Opt-in live steering for the coupled driver (the mph_watch closed
/// loop).  When null the interval loop runs the plain protocol — one
/// pointer test, zero extra traffic.  When set, every rank
/// of the coupled application carries a slice of a shared auxiliary work
/// field (a Decomp over the WHOLE world, cutting across components) and
/// executes it each interval; at each interval boundary the world root
/// polls the job's Watcher, and when an imbalance alert fired it derives
/// fresh throughput weights from the live metrics snapshot
/// (weights_from_metrics), broadcasts them, and every rank deterministically
/// folds them through a Rebalancer and repartitions the work field — the
/// job rebalances itself without restarting.  The physics fields are never
/// touched, so final statistics stay bit-identical to an unsteered run.
struct SteeringSpec {
  /// Global size of the auxiliary work field.
  std::int64_t work_units = 2048;
  /// Inner loop repetitions per unit per interval — the work cost knob.
  int work_reps = 60;
  /// Seeded imbalance for tests/demos: ranks of this component pay
  /// `slow_factor` times the per-unit cost (1.0 = no seeded skew).
  std::string slow_component;
  double slow_factor = 1.0;
  /// Rebalance trigger/smoothing (see RebalancePolicy).
  coupler::RebalancePolicy policy;
};

/// What one component measured during a coupled run.
struct ComponentResult {
  std::string component;
  /// Area-weighted global mean of the component's primary field after each
  /// coupling interval (empty on non-root coupler ranks).
  std::vector<double> mean_series;
  /// Coupler only: the cross-component diagnostics.
  CouplerDiagnostics coupler;
  /// Steering only: intervals at whose boundary the auxiliary work field
  /// was repartitioned (identical on every rank — the decision is
  /// collective), and this rank's final share of it.
  std::vector<int> rebalanced_intervals;
  std::int64_t steer_local_units = 0;
};

/// Run one component of the coupled climate system to completion.
/// Dispatches on `handle.comp_name()`; the five roles are the peer names in
/// `peers` plus `coupler_name`, and any other name throws MphError.
/// Collective over the component (and, at exchange points, over the coupled
/// application).  With a `store`, every component checkpoints each interval
/// and a relaunched job resumes from the newest step every component can
/// restore; a store that lacks that step throws SetupError.  `store` must
/// outlive the call; entries are keyed by component name.
ComponentResult run_coupled_component(
    mph::Mph& handle, const ClimateConfig& cfg,
    const FluxCoupler::Peers& peers = FluxCoupler::Peers(),
    const std::string& coupler_name = "coupler",
    const recover::CheckpointStore* store = nullptr,
    const SteeringSpec* steering = nullptr);

/// Result of an ensemble participant.
struct EnsembleResult {
  /// Statistics component: one snapshot per interval.
  std::vector<EnsembleSnapshot> snapshots;
  /// Instances: my own mean SST per interval.
  std::vector<double> my_means;
  /// Statistics root only: members observed dead during the run (MIME
  /// isolation) — their samples were skipped from the interval they died.
  std::vector<std::string> failed_members;
  /// Statistics root only, recovery mode: members that died and came back
  /// (supervised respawn + checkpoint restore) without losing an interval.
  std::vector<std::string> healed_members;
};

/// Run one ocean ensemble instance (a component created by
/// MPH_multi_instance).  Reads the instance arguments:
///   diff=<factor>  — ocean diffusivity scaling (default 1)
/// Sends its instantaneous global-mean SST to `stats_name` each interval
/// and applies the control nudge that comes back.  With a `store` the
/// member checkpoints after each nudge and resumes from its newest
/// checkpoint, and the sample travels tagged with its interval.
EnsembleResult run_ensemble_instance(
    mph::Mph& handle, const ClimateConfig& cfg, const std::string& stats_name,
    const recover::CheckpointStore* store = nullptr);

/// Serial reference: the entire coupled system composed by direct function
/// calls in ONE process (no MPH, no message passing) with the identical
/// physics and exchange schedule.  Because every piece of the parallel
/// system is deterministic and decomposition-independent, the coupler
/// diagnostics of any MPH wiring must match this reference bit-for-bit —
/// the strongest end-to-end correctness check the test suite has.
/// `world` must be a single-rank communicator (the models still want one).
[[nodiscard]] CouplerDiagnostics run_serial_reference(
    const minimpi::Comm& world, const ClimateConfig& cfg);

/// Run the statistics component: aggregates the instances whose names start
/// with `prefix`, computes mean/variance/min/max/median per interval, and
/// steers each instance toward the ensemble mean with gain `gain`
/// (0 disables dynamic control).  With a `store` it checkpoints each
/// interval, grants dead members a respawn window and replays the nudges a
/// restored member missed.
EnsembleResult run_ensemble_statistics(
    mph::Mph& handle, const ClimateConfig& cfg, const std::string& prefix,
    double gain, const recover::CheckpointStore* store = nullptr);

}  // namespace mph::climate
