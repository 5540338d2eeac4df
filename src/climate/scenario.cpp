#include "src/climate/scenario.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>

#include <cmath>

#include "src/coupler/rebalance.hpp"
#include "src/minimpi/collectives.hpp"
#include "src/minimpi/job.hpp"
#include "src/mph/errors.hpp"
#include "src/util/strings.hpp"

namespace mph::climate {

namespace {

// ---------------------------------------------------------------------------
// Steering helpers (the mph_watch closed loop, DESIGN.md §17).  Everything
// sits behind the `steering != nullptr` branch; a run without a
// SteeringSpec never reaches any of it.
// ---------------------------------------------------------------------------

/// The shared auxiliary work field and its rebalancing protocol.  The field
/// is a Decomp of `work_units` indices over the WHOLE world (cutting across
/// component boundaries — exactly what the Router cannot move and
/// repartition() exists for), each rank burning CPU proportional to its
/// share every interval.  At each interval boundary the world root polls
/// the job's Watcher; when an imbalance alert fired, throughput weights
/// derived from the live metrics snapshot are broadcast and every rank
/// deterministically folds them through its own Rebalancer, so all ranks
/// reach the identical proposal without further negotiation.
class Steering {
 public:
  Steering(mph::Mph& h, const SteeringSpec* spec) : h_(h), spec_(spec) {
    if (spec_ == nullptr) return;
    const minimpi::Comm& world = h_.world();
    decomp_ = coupler::Decomp::block(spec_->work_units, world.size());
    const int me = world.rank();
    local_.resize(static_cast<std::size_t>(decomp_.local_size(me)));
    for (std::size_t i = 0; i < local_.size(); ++i) {
      // Value = f(global index), so tests can verify the field survives
      // any sequence of repartitions bit-for-bit.
      const std::int64_t g =
          decomp_.to_global(me, static_cast<std::int64_t>(i));
      local_[i] = 1.0 + 0.5 * static_cast<double>(g);
    }
    world_ranks_.resize(static_cast<std::size_t>(world.size()));
    for (int r = 0; r < world.size(); ++r) {
      world_ranks_[static_cast<std::size_t>(r)] =
          static_cast<minimpi::rank_t>(r);
    }
    rebalancer_ = coupler::Rebalancer(spec_->policy);
    slow_ = h_.comp_name() == spec_->slow_component;
  }

  /// Burn this interval's share of the auxiliary work (pure compute, no
  /// communication).  The seeded slow component pays slow_factor times the
  /// per-unit cost — the imbalance the watch rules must catch live.
  void interval_work() const {
    if (spec_ == nullptr) return;
    const int reps = static_cast<int>(
        static_cast<double>(spec_->work_reps) *
        (slow_ ? spec_->slow_factor : 1.0));
    volatile double sink = 0.0;
    for (const double v : local_) {
      double acc = v;
      for (int rep = 0; rep < reps; ++rep) {
        acc += std::sqrt(acc + static_cast<double>(rep));
      }
      sink = sink + acc;
    }
  }

  /// Interval boundary, collective over the world.  The root feeds the
  /// Watcher a fresh snapshot itself (detection must not depend on the
  /// monitor thread's publish timing) and consumes a pending imbalance
  /// alert; the fire decision and the weights travel by broadcast, so the
  /// rebalance is a lock-step collective like the exchange schedule.
  void boundary(int interval, ComponentResult& result) {
    if (spec_ == nullptr) return;
    const minimpi::Comm& world = h_.world();
    std::uint8_t fire = 0;
    std::vector<double> weights(static_cast<std::size_t>(world.size()), 1.0);
    if (world.rank() == 0) {
      if (minimpi::watch::Watcher* watcher = world.job().watcher()) {
        const minimpi::MetricsSnapshot snap = world.job().metrics_snapshot();
        watcher->observe(snap);
        if (watcher->consume_imbalance_alert()) {
          fire = 1;
          weights = coupler::weights_from_metrics(
              snap, decomp_, std::span<const minimpi::rank_t>(world_ranks_));
        }
      }
    }
    minimpi::bcast_value(world, fire, 0);
    if (fire == 0) return;
    minimpi::bcast(world, std::span<double>(weights), 0);
    const std::optional<coupler::Decomp> proposal =
        rebalancer_.propose_from_weights(
            decomp_, std::span<const double>(weights));
    if (!proposal.has_value()) return;
    local_ = coupler::repartition(world, decomp_, *proposal,
                                  std::span<const double>(local_),
                                  tags::steer_field);
    decomp_ = *proposal;
    result.rebalanced_intervals.push_back(interval);
  }

  void finish(ComponentResult& result) const {
    if (spec_ == nullptr) return;
    result.steer_local_units = static_cast<std::int64_t>(local_.size());
  }

 private:
  mph::Mph& h_;
  const SteeringSpec* spec_;
  coupler::Decomp decomp_;
  std::vector<double> local_;
  std::vector<minimpi::rank_t> world_ranks_;
  coupler::Rebalancer rebalancer_;
  bool slow_ = false;
};

// ---------------------------------------------------------------------------
// The coupling-interval loop.  One loop runs every role of the coupled
// system; a role contributes only its interval body and its checkpointed
// state.  Recovery (DESIGN.md §13) sits behind `store != nullptr`: a run
// without a store never reaches a checkpoint.
// ---------------------------------------------------------------------------

/// A model role of the coupled system, as data: everything the interval
/// loop needs that differs between the atmosphere, ocean, land and ice.
/// The import always lands on the model's own grid, so its size is the
/// grid's.
template <class Model>
struct ModelRole {
  const char* component;  ///< ComponentResult::component
  /// Collective gather of the field the coupler consumes.
  std::vector<double> (*export_field)(Model&);
  int export_tag;
  void (Model::*import_field)(std::span<const double>);
  int import_tag;
};

/// Interval body of a model role: step the model, then exchange full
/// fields root to root with the coupler (paper §6; the other component
/// ranks take part in the gather and scatter only).  The checkpointed
/// state is the model's two fields plus the mean series, identical on
/// every component rank.
template <class Model>
class ModelBody {
 public:
  static constexpr bool kStateOnEveryRank = true;

  ModelBody(mph::Mph& h, const ClimateConfig& cfg,
            const std::string& coupler_name, const ModelRole<Model>& role)
      : h_(h), cfg_(cfg), coupler_name_(coupler_name), role_(role),
        model_(cfg, h.comp_comm()) {}

  [[nodiscard]] const char* component() const { return role_.component; }

  void advance(ComponentResult& result) {
    for (int s = 0; s < cfg_.steps_per_interval; ++s) model_.step();
    const std::vector<double> exported = role_.export_field(model_);
    std::vector<double> imported;
    if (h_.local_proc_id() == 0) {
      h_.send(std::span<const double>(exported), coupler_name_, 0,
              role_.export_tag);
      imported.resize(static_cast<std::size_t>(model_.grid().size()));
      h_.recv(std::span<double>(imported), coupler_name_, 0, role_.import_tag);
    }
    (model_.*role_.import_field)(imported);
    result.mean_series.push_back(model_.global_mean());
  }

  /// Collective over the component (the fields are gathered to the root).
  void save(recover::Checkpoint& ckpt, const ComponentResult& result) const {
    ckpt.put_doubles("primary", model_.export_state_primary());
    ckpt.put_doubles("import", model_.export_state_import());
    ckpt.put_flag("has_import", model_.has_import());
    ckpt.put_doubles("mean_series", result.mean_series);
  }

  /// Communication-free: every rank reads the file and keeps its rows.
  void restore(const recover::Checkpoint& ckpt, ComponentResult& result) {
    const bool has_import = ckpt.flag("has_import");
    model_.restore_state(
        ckpt.doubles("primary"),
        has_import ? ckpt.doubles("import") : std::vector<double>{},
        has_import);
    result.mean_series = ckpt.doubles("mean_series");
  }

  void finish(ComponentResult& /*result*/) const {}

 private:
  mph::Mph& h_;
  const ClimateConfig& cfg_;
  const std::string& coupler_name_;
  ModelRole<Model> role_;
  Model model_;
};

/// Interval body of the coupler: one couple_once() per interval.  Its
/// whole state is the diagnostics, and they live on the coupler's
/// component root (the other coupler ranks idle by design).
class CouplerBody {
 public:
  static constexpr bool kStateOnEveryRank = false;

  CouplerBody(mph::Mph& h, const ClimateConfig& cfg,
              const FluxCoupler::Peers& peers)
      : coupler_(cfg, h, peers) {}

  [[nodiscard]] static const char* component() { return "coupler"; }

  void advance(ComponentResult& /*result*/) { coupler_.couple_once(); }

  void save(recover::Checkpoint& ckpt,
            const ComponentResult& /*result*/) const {
    const CouplerDiagnostics& diag = coupler_.diagnostics();
    ckpt.put_doubles("mean_t_atm", diag.mean_t_atm);
    ckpt.put_doubles("mean_sst", diag.mean_sst);
    ckpt.put_doubles("mean_evap", diag.mean_evap);
    ckpt.put_doubles("mean_icefrac", diag.mean_icefrac);
  }

  void restore(const recover::Checkpoint& ckpt, ComponentResult& /*result*/) {
    coupler_.restore_diagnostics(CouplerDiagnostics{
        ckpt.doubles("mean_t_atm"), ckpt.doubles("mean_sst"),
        ckpt.doubles("mean_evap"), ckpt.doubles("mean_icefrac")});
  }

  void finish(ComponentResult& result) const {
    result.coupler = coupler_.diagnostics();
    result.mean_series = result.coupler.mean_sst;
  }

 private:
  FluxCoupler coupler_;
};

/// Run intervals [start, cfg.intervals) of one role: restore from the
/// agreed step, then per interval the fault checkpoint, the steering
/// work, the role's body, the checkpoint save and the steering boundary.
template <class Body>
ComponentResult run_intervals(mph::Mph& h, const ClimateConfig& cfg,
                              const recover::CheckpointStore* store,
                              const SteeringSpec* steering, int start,
                              Body& body) {
  Steering steer(h, steering);
  ComponentResult result;
  result.component = body.component();
  const bool root = h.local_proc_id() == 0;
  if (store != nullptr && start > 0 && (Body::kStateOnEveryRank || root)) {
    const auto step = static_cast<std::uint64_t>(start - 1);
    const std::optional<recover::Checkpoint> ckpt =
        store->load_step(h.comp_name(), step);
    if (!ckpt.has_value()) {  // a pruned or lost store
      throw SetupError("recovery: component '" + h.comp_name() +
                       "' has no checkpoint for the agreed restart step " +
                       std::to_string(step) + " in " + store->dir());
    }
    body.restore(*ckpt, result);
  }
  for (int interval = start; interval < cfg.intervals; ++interval) {
    if (store != nullptr) {
      h.world().fault_checkpoint(static_cast<std::uint64_t>(interval));
    }
    steer.interval_work();
    body.advance(result);
    if (store != nullptr) {
      recover::Checkpoint ckpt(static_cast<std::uint64_t>(interval));
      body.save(ckpt, result);
      if (root) store->save(h.comp_name(), ckpt);
    }
    steer.boundary(interval, result);
  }
  steer.finish(result);
  body.finish(result);
  return result;
}

}  // namespace

ComponentResult run_coupled_component(mph::Mph& handle,
                                      const ClimateConfig& cfg,
                                      const FluxCoupler::Peers& peers,
                                      const std::string& coupler_name,
                                      const recover::CheckpointStore* store,
                                      const SteeringSpec* steering) {
  int start = 0;
  if (store != nullptr) {
    // The coupled system checkpoints in lockstep but components can die one
    // interval apart (a kill between a component's save and its peers').
    // Agree on the newest step EVERY component can restore: the minimum of
    // the per-component latest steps (the store retains two steps, so the
    // laggard's neighbour still holds the agreed one).  Collective over the
    // whole application, like the exchange schedule itself.
    const std::optional<std::uint64_t> latest =
        store->latest_step(handle.comp_name());
    std::uint64_t candidate =
        latest.has_value() ? *latest + 1 : std::uint64_t{0};
    candidate = minimpi::allreduce_value(
        handle.world(), candidate,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
    start = static_cast<int>(candidate);
  }
  const auto run = [&](auto&& body) {
    return run_intervals(handle, cfg, store, steering, start, body);
  };
  const std::string& role = handle.comp_name();
  if (role == peers.atmosphere) {
    // The coupler sees the time mean over the interval, not a sample.
    return run(ModelBody<Atmosphere>(
        handle, cfg, coupler_name,
        {"atmosphere",
         [](Atmosphere& m) { return m.export_temperature_mean(); },
         tags::t_atm_to_cpl, &Atmosphere::import_sst, tags::sst_to_atm}));
  }
  if (role == peers.ocean) {
    return run(ModelBody<Ocean>(
        handle, cfg, coupler_name,
        {"ocean", [](Ocean& m) { return m.export_sst_mean(); },
         tags::sst_to_cpl, &Ocean::import_flux, tags::flux_to_ocn}));
  }
  if (role == peers.land) {
    return run(ModelBody<Land>(
        handle, cfg, coupler_name,
        {"land", [](Land& m) { return m.export_evaporation(); },
         tags::evap_to_cpl, &Land::import_temperature, tags::t_atm_to_land}));
  }
  if (role == peers.ice) {
    return run(ModelBody<SeaIce>(
        handle, cfg, coupler_name,
        {"ice", [](SeaIce& m) { return m.export_fraction(); },
         tags::ice_to_cpl, &SeaIce::import_sst, tags::sst_to_ice}));
  }
  if (role == coupler_name) return run(CouplerBody(handle, cfg, peers));
  throw MphError("run_coupled_component: component '" + role +
                 "' has no role in the coupled system");
}

CouplerDiagnostics run_serial_reference(const minimpi::Comm& world,
                                        const ClimateConfig& cfg) {
  if (world.size() != 1) {
    throw MphError("run_serial_reference requires a single-rank communicator");
  }
  Atmosphere atm(cfg, world);
  Ocean ocn(cfg, world);
  Land lnd(cfg, world);
  SeaIce ice(cfg, world);
  const Grid2D atm_grid(cfg.atm_nlon, cfg.atm_nlat);
  const Grid2D ocn_grid(cfg.ocn_nlon, cfg.ocn_nlat);
  const coupler::Regrid2D atm_to_ocn(cfg.atm_nlon, cfg.atm_nlat, cfg.ocn_nlon,
                                     cfg.ocn_nlat);
  const coupler::Regrid2D ocn_to_atm(cfg.ocn_nlon, cfg.ocn_nlat, cfg.atm_nlon,
                                     cfg.atm_nlat);

  CouplerDiagnostics diag;
  for (int interval = 0; interval < cfg.intervals; ++interval) {
    for (int s = 0; s < cfg.steps_per_interval; ++s) {
      atm.step();
      ocn.step();
      lnd.step();
      ice.step();
    }
    // The exchange, as direct data movement (1-rank gathers = full fields).
    const std::vector<double> t_atm = atm.export_temperature_mean();
    const std::vector<double> sst = ocn.export_sst_mean();
    const std::vector<double> evap = lnd.export_evaporation();
    const std::vector<double> icefrac = ice.export_fraction();

    const CouplingResult merged =
        compute_coupling(cfg, atm_to_ocn, ocn_to_atm, t_atm, sst, icefrac);

    atm.import_sst(merged.sst_on_atm);
    ocn.import_flux(merged.flux_ocn);
    lnd.import_temperature(t_atm);
    ice.import_sst(sst);

    diag.mean_t_atm.push_back(area_mean(atm_grid, t_atm));
    diag.mean_sst.push_back(area_mean(ocn_grid, sst));
    diag.mean_evap.push_back(area_mean(atm_grid, evap));
    diag.mean_icefrac.push_back(area_mean(ocn_grid, icefrac));
  }
  return diag;
}

EnsembleResult run_ensemble_instance(mph::Mph& handle,
                                     const ClimateConfig& cfg,
                                     const std::string& stats_name,
                                     const recover::CheckpointStore* store) {
  ClimateConfig my_cfg = cfg;
  double diff_scale = 1.0;
  handle.get_argument("diff", diff_scale);

  Ocean model(my_cfg, handle.comp_comm());
  model.scale_diffusivity(diff_scale);

  EnsembleResult result;
  int start = 0;
  if (store != nullptr) {
    // Resume from my newest checkpoint (communication-free: every member
    // rank reads the file and keeps its own rows).  No checkpoint means a
    // cold start — identical to the legacy path from interval 0.
    const std::optional<recover::Checkpoint> ckpt =
        store->load_latest(handle.comp_name());
    if (ckpt.has_value()) {
      model.restore_state(ckpt->doubles("ocean.sst"), {}, false);
      result.my_means = ckpt->doubles("my_means");
      start = static_cast<int>(ckpt->step()) + 1;
    }
  }
  for (int interval = start; interval < cfg.intervals; ++interval) {
    // Fault-injection checkpoint: "kill member M at interval N" plans
    // (FaultPlan::kill_at_step) fire here, before the interval's work.
    // Recovery mode doubles the kill points (2i = interval boundary,
    // 2i+1 = after the sample went up, before the nudge came back) so
    // tests can kill on either side of the protocol's send.
    handle.world().fault_checkpoint(
        store != nullptr ? static_cast<std::uint64_t>(2 * interval)
                            : static_cast<std::uint64_t>(interval));
    for (int s = 0; s < cfg.steps_per_interval; ++s) model.step();
    const double mean = model.global_mean();
    result.my_means.push_back(mean);

    // Root reports the instantaneous mean and receives the control nudge;
    // the nudge is broadcast inside the instance and applied everywhere.
    double nudge = 0;
    if (store != nullptr) {
      if (handle.local_proc_id() == 0) {
        // Interval-tagged sample: after a restore the statistics component
        // may legitimately see interval I twice (once from the dead
        // incarnation, once from the replacement) and tells them apart by
        // the tag.
        const std::array<double, 2> up = {static_cast<double>(interval),
                                          mean};
        handle.send(std::span<const double>(up), stats_name, 0,
                    tags::stat_up);
      }
      handle.world().fault_checkpoint(
          static_cast<std::uint64_t>(2 * interval + 1));
      if (handle.local_proc_id() == 0) {
        for (;;) {
          std::array<double, 2> down = {0, 0};
          handle.recv(std::span<double>(down), stats_name, 0,
                      tags::stat_down);
          const int j = static_cast<int>(down[0]);
          if (j == interval) {
            nudge = down[1];
            break;
          }
          if (j > interval) {
            throw MphError(
                "run_ensemble_instance: '" + handle.comp_name() +
                "' at interval " + std::to_string(interval) +
                " received the control nudge of future interval " +
                std::to_string(j) +
                " — the statistics component ran ahead of my sample");
          }
          // j < interval: a replay of a nudge I already applied (the
          // statistics component resends its last nudges after a restart
          // in case they never arrived); drop it and keep waiting.
        }
      }
    } else if (handle.local_proc_id() == 0) {
      handle.send(mean, stats_name, 0, tags::stat_up);
      handle.recv(nudge, stats_name, 0, tags::stat_down);
    }
    minimpi::bcast_value(handle.comp_comm(), nudge, 0);
    model.nudge(nudge);
    if (store != nullptr) {
      // Checkpoint AFTER the nudge is applied: the snapshot is the state
      // the next interval starts from, so a replacement restored from it
      // never re-requests this interval's nudge.
      const std::vector<double> full = model.export_state_primary();
      if (handle.local_proc_id() == 0) {
        recover::Checkpoint ckpt(static_cast<std::uint64_t>(interval));
        ckpt.put_doubles("ocean.sst", full);
        ckpt.put_doubles("my_means", result.my_means);
        store->save(handle.comp_name(), ckpt);
      }
    }
  }
  return result;
}

namespace {

/// Serialize/parse the snapshots series for the statistics checkpoint
/// (5 doubles per interval, in field order).
std::vector<double> flatten_snapshots(
    const std::vector<EnsembleSnapshot>& snapshots) {
  std::vector<double> flat;
  flat.reserve(snapshots.size() * 5);
  for (const EnsembleSnapshot& s : snapshots) {
    flat.push_back(s.mean);
    flat.push_back(s.variance);
    flat.push_back(s.min);
    flat.push_back(s.max);
    flat.push_back(s.median);
  }
  return flat;
}

std::vector<EnsembleSnapshot> unflatten_snapshots(
    const std::vector<double>& flat) {
  if (flat.size() % 5 != 0) {
    throw SetupError(
        "recovery: statistics checkpoint holds " +
        std::to_string(flat.size()) +
        " snapshot values, not a multiple of 5 (corrupt or foreign entry)");
  }
  std::vector<EnsembleSnapshot> snapshots(flat.size() / 5);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    snapshots[i].mean = flat[5 * i];
    snapshots[i].variance = flat[5 * i + 1];
    snapshots[i].min = flat[5 * i + 2];
    snapshots[i].max = flat[5 * i + 3];
    snapshots[i].median = flat[5 * i + 4];
  }
  return snapshots;
}

/// Total wait the statistics component grants a dead member before giving
/// up on its replacement: the same backoff schedule await_alive would walk
/// (attempts <= 1 means no retry policy — report dead immediately, the
/// pre-recovery semantics).
std::chrono::milliseconds dead_member_budget(const LivenessOptions& liveness) {
  std::chrono::duration<double, std::milli> total{0};
  double scale = 1.0;
  for (int a = 1; a < liveness.attempts; ++a) {
    total += std::chrono::duration<double, std::milli>(
        static_cast<double>(liveness.backoff.count()) * scale);
    scale *= liveness.backoff_factor;
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(total);
}

}  // namespace

EnsembleResult run_ensemble_statistics(mph::Mph& handle,
                                       const ClimateConfig& cfg,
                                       const std::string& prefix,
                                       double gain,
                                       const recover::CheckpointStore* store) {
  // Discover the instances from the directory: every component whose name
  // starts with the prefix, in component-id order.
  std::vector<std::string> instances;
  for (const ComponentRecord& c : handle.directory().components()) {
    if (util::starts_with(c.name, prefix) && c.name != handle.comp_name()) {
      instances.push_back(c.name);
    }
  }
  if (instances.empty()) {
    throw MphError("run_ensemble_statistics: no components with prefix '" +
                   prefix + "'");
  }

  EnsembleStatistics stats(static_cast<int>(instances.size()));
  EnsembleResult result;
  std::vector<bool> alive(instances.size(), true);

  // --- recovery state (untouched on the legacy path) ------------------------
  int start = 0;
  // The newest nudge computed for each member; replayed when a restored
  // member re-sends a sample the dead incarnation already delivered.
  std::vector<double> cached_nudge(instances.size(), 0.0);
  // Members currently observed dead, with the time the death was first
  // seen (the respawn grace window runs from there).
  std::vector<std::optional<std::chrono::steady_clock::time_point>> dead_since(
      instances.size());
  std::set<std::size_t> healed;
  const std::chrono::milliseconds budget =
      store != nullptr ? dead_member_budget(handle.options().liveness)
                          : std::chrono::milliseconds{0};

  if (store != nullptr && handle.local_proc_id() == 0) {
    const std::optional<recover::Checkpoint> ckpt =
        store->load_latest(handle.comp_name());
    if (ckpt.has_value()) {
      result.snapshots = unflatten_snapshots(ckpt->doubles("snapshots"));
      const std::vector<double> nudges = ckpt->doubles("nudges");
      const std::vector<std::uint64_t> alive_flags = ckpt->u64s("alive");
      if (nudges.size() != instances.size() ||
          alive_flags.size() != instances.size()) {
        throw SetupError(
            "recovery: statistics checkpoint describes " +
            std::to_string(nudges.size()) + " members, ensemble has " +
            std::to_string(instances.size()));
      }
      cached_nudge = nudges;
      for (std::size_t k = 0; k < instances.size(); ++k) {
        alive[k] = alive_flags[k] != 0;
      }
      const auto step = static_cast<int>(ckpt->step());
      start = step + 1;
      // The checkpoint is written after aggregation but BEFORE the nudges
      // go out, so the members may never have received interval `step`'s
      // nudges.  Resend them; a member that already applied its copy sees
      // a stale tag and drops the duplicate.
      for (std::size_t k = 0; k < instances.size(); ++k) {
        if (!alive[k]) continue;
        const std::array<double, 2> down = {static_cast<double>(step),
                                            cached_nudge[k]};
        handle.send(std::span<const double>(down), instances[k], 0,
                    tags::stat_down);
      }
    }
  }

  // Wait for member k's sample without committing to a blocking receive: a
  // member that dies under MIME isolation would otherwise stall the whole
  // ensemble until the job timeout.  Returns false when the member is dead
  // (its sample, if any arrives late, is left queued and reported by
  // finalize()).
  const auto member_sample = [&](std::size_t k, double& out) -> bool {
    const minimpi::rank_t src = handle.global_rank_of(instances[k], 0);
    const minimpi::Deadline deadline = handle.world().job().deadline();
    for (;;) {
      if (handle.world().iprobe(src, tags::stat_up).has_value()) {
        handle.recv(out, instances[k], 0, tags::stat_up);
        return true;
      }
      if (!handle.ping(instances[k])) return false;
      if (std::chrono::steady_clock::now() >= deadline) {
        throw MphError("run_ensemble_statistics: timed out waiting for the "
                       "sample of live member '" +
                       instances[k] + "'");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // The recovery-aware variant: samples are {interval, mean} pairs, dead
  // members get a respawn grace window instead of an immediate write-off,
  // and a restored member's replayed sample is answered with the cached
  // nudge it missed.
  const auto member_sample_recovering = [&](std::size_t k, int interval,
                                            double& out) -> bool {
    const minimpi::rank_t src = handle.global_rank_of(instances[k], 0);
    const minimpi::Deadline deadline = handle.world().job().deadline();
    for (;;) {
      if (handle.world().iprobe(src, tags::stat_up).has_value()) {
        std::array<double, 2> up = {0, 0};
        handle.recv(std::span<double>(up), instances[k], 0, tags::stat_up);
        const int j = static_cast<int>(up[0]);
        if (j == interval) {
          if (dead_since[k].has_value()) {
            healed.insert(k);
            dead_since[k].reset();
          }
          out = up[1];
          return true;
        }
        if (j > interval) {
          throw MphError("run_ensemble_statistics: member '" + instances[k] +
                         "' sent the sample of future interval " +
                         std::to_string(j) + " while interval " +
                         std::to_string(interval) + " is being aggregated");
        }
        // j < interval: the dead incarnation already delivered this
        // sample; the replacement restored from an older checkpoint and
        // replays it.  Answer with the nudge it missed (same value the
        // aggregate used — determinism is preserved) and keep waiting for
        // the current interval.  A stale tag is itself proof of a restored
        // member — count the heal even when the death-to-respawn window was
        // too short for the poll below to observe — except right after our
        // own restart (interval == start), where it is ordinary lag.
        const std::array<double, 2> down = {static_cast<double>(j),
                                            cached_nudge[k]};
        handle.send(std::span<const double>(down), instances[k], 0,
                    tags::stat_down);
        if (dead_since[k].has_value() || interval > start) healed.insert(k);
        dead_since[k].reset();
        continue;
      }
      if (handle.failure_of(instances[k]).has_value()) {
        // Observed dead.  With no retry policy that is final (legacy
        // semantics); otherwise grant the supervisor's respawn window.
        if (handle.options().liveness.attempts <= 1) return false;
        const auto now = std::chrono::steady_clock::now();
        if (!dead_since[k].has_value()) {
          dead_since[k] = now;
        } else if (now - *dead_since[k] > budget) {
          return false;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        throw MphError("run_ensemble_statistics: timed out waiting for the "
                       "sample of live member '" +
                       instances[k] + "'");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  for (int interval = start; interval < cfg.intervals; ++interval) {
    if (handle.local_proc_id() != 0) continue;
    std::vector<double> samples;
    std::vector<std::size_t> live;
    samples.reserve(instances.size());
    for (std::size_t k = 0; k < instances.size(); ++k) {
      if (!alive[k]) continue;
      double sample = 0;
      const bool got = store != nullptr
                           ? member_sample_recovering(k, interval, sample)
                           : member_sample(k, sample);
      if (got) {
        samples.push_back(sample);
        live.push_back(k);
      } else {
        alive[k] = false;
      }
    }
    if (samples.empty()) break;  // the whole ensemble died
    stats.set_instances(static_cast<int>(samples.size()));
    const EnsembleSnapshot snap = stats.aggregate(samples);
    const std::vector<double> nudges =
        stats.control_nudges(samples, snap.mean, gain);
    result.snapshots.push_back(snap);
    if (store != nullptr) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        cached_nudge[live[i]] = nudges[i];
      }
      // Checkpoint BEFORE the nudges go out (they are stored inside, so a
      // restart can resend them): this pins the member/statistics lag to
      // at most one interval, which the replay protocol absorbs.
      std::vector<std::uint64_t> alive_flags(instances.size(), 0);
      for (std::size_t k = 0; k < instances.size(); ++k) {
        alive_flags[k] = alive[k] ? 1 : 0;
      }
      recover::Checkpoint ckpt(static_cast<std::uint64_t>(interval));
      ckpt.put_doubles("snapshots", flatten_snapshots(result.snapshots));
      ckpt.put_doubles("nudges", cached_nudge);
      ckpt.put_u64s("alive", alive_flags);
      store->save(handle.comp_name(), ckpt);
      for (std::size_t i = 0; i < live.size(); ++i) {
        // Unconditional send: a nudge to a member that died again simply
        // sits in its mailbox until the heal drains it, and the replay
        // path re-delivers the value.
        const std::array<double, 2> down = {static_cast<double>(interval),
                                            nudges[i]};
        handle.send(std::span<const double>(down), instances[live[i]], 0,
                    tags::stat_down);
      }
    } else {
      for (std::size_t i = 0; i < live.size(); ++i) {
        // A member can die after reporting; don't nudge a corpse.
        if (handle.ping(instances[live[i]])) {
          handle.send(nudges[i], instances[live[i]], 0, tags::stat_down);
        } else {
          alive[live[i]] = false;
        }
      }
    }
  }
  if (handle.local_proc_id() == 0) {
    for (std::size_t k = 0; k < instances.size(); ++k) {
      if (!alive[k]) result.failed_members.push_back(instances[k]);
    }
    for (const std::size_t k : healed) {
      result.healed_members.push_back(instances[k]);
    }
  }
  return result;
}

}  // namespace mph::climate
