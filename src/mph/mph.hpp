// mph.hpp — the MPH public interface: Multiple Program-Component
// Handshaking for distributed-memory architectures (Ding & He, IPPS 2004).
//
// An Mph object is a rank's view of the established multi-component
// environment, created by one of two collective entry points:
//
//   // SCME / MCME / MCSE (paper §4.1-§4.3): declare this executable's
//   // ordered component name-tags.
//   mph::Mph h = mph::Mph::components_setup(world, source, {"atmosphere"});
//   mph::Mph h = mph::Mph::components_setup(world, source,
//                                           {"ocean", "ice"});
//
//   // MIME ensembles (paper §4.4): declare the instance-name prefix.
//   mph::Mph h = mph::Mph::multi_instance(world, source, "Ocean");
//
// where `source` names the registration file (read on world rank 0 and
// broadcast, exactly as §6 describes), carries its text directly, or wraps
// an already-parsed Registry.
//
// The handle then answers every MPH query of §4-§5: per-component
// communicators, PROC_in_component, MPH_comm_join, name-addressed
// point-to-point, inquiry functions, instance arguments, and stdout
// redirection.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/topology.hpp"
#include "src/mph/arguments.hpp"
#include "src/mph/directory.hpp"
#include "src/mph/errors.hpp"
#include "src/mph/handshake.hpp"
#include "src/mph/redirect.hpp"
#include "src/mph/registry.hpp"
#include "src/mph/version.hpp"

namespace mph {

/// Where the registration file comes from.  With `path` or `text`, only
/// world rank 0's copy is authoritative: it is parsed there and broadcast,
/// matching the paper's §6 startup ("read by the root processor and
/// broadcast to all processors").  With `registry`, every rank must pass an
/// identical pre-parsed model (useful for programmatic configuration).
class RegistrySource {
 public:
  static RegistrySource from_path(std::string path);
  static RegistrySource from_text(std::string text);
  static RegistrySource from_registry(Registry registry);

  /// Resolve to a Registry every rank agrees on.  Collective over `world`.
  [[nodiscard]] Registry resolve(const minimpi::Comm& world) const;

 private:
  enum class Kind { path, text, registry };
  Kind kind_ = Kind::text;
  std::string payload_;
  std::optional<Registry> registry_;
};

class Mph {
 public:
  /// Collective setup for component-declaring executables (modes SCSE,
  /// SCME, MCSE, MCME).  `names` is this executable's ordered component
  /// name list — a single tag for a single-component executable.
  [[nodiscard]] static Mph components_setup(const minimpi::Comm& world,
                                            const RegistrySource& source,
                                            std::vector<std::string> names,
                                            HandshakeOptions options = {});

  /// Collective setup for a multi-instance (ensemble) executable: all
  /// instance names in the matched Multi_Instance block share `prefix`.
  [[nodiscard]] static Mph multi_instance(const minimpi::Comm& world,
                                          const RegistrySource& source,
                                          std::string prefix,
                                          HandshakeOptions options = {});

  /// Rejoin setup for a RESPAWNED ensemble member (ExecEnv::incarnation >
  /// 0 under JobOptions::respawn): rebuilds the directory from the layout
  /// the original handshake published on the job blackboard, re-registers
  /// the member's failure domain, and creates the member communicator —
  /// collective over the member's own (respawned) ranks only, so surviving
  /// components are never involved.  See rejoin_handshake() for the one
  /// degradation (exec_comm is the member communicator).
  [[nodiscard]] static Mph rejoin_instance(const minimpi::Comm& world,
                                           std::string prefix,
                                           HandshakeOptions options = {});

  // ---- communicators ------------------------------------------------------

  /// MPH_Global_World: the communicator spanning the whole application.
  [[nodiscard]] const minimpi::Comm& world() const noexcept {
    return result_.world;
  }

  /// Communicator of this rank's executable.
  [[nodiscard]] const minimpi::Comm& exec_comm() const noexcept {
    return result_.exec_comm;
  }

  /// Communicator of this rank's (primary) component — the value
  /// MPH_components_setup returns in the paper's examples.
  [[nodiscard]] const minimpi::Comm& comp_comm() const;

  /// Communicator of a named component on this rank; throws LookupError if
  /// this rank is not part of it.
  [[nodiscard]] const minimpi::Comm& comp_comm(std::string_view name) const;

  /// Paper §4.2 `PROC_in_component(name, comm)`: true when this rank
  /// belongs to `name`; fills `out` with the component communicator.
  bool proc_in_component(std::string_view name,
                         minimpi::Comm* out = nullptr) const;

  /// MPH_comm_join (paper §5.1): joint communicator over two components,
  /// with `first`'s processes ranked 0..|first|-1, then `second`'s.
  /// Collective over the union of both components' ranks only.
  [[nodiscard]] minimpi::Comm comm_join(std::string_view first,
                                        std::string_view second) const;

  // ---- name-addressed point-to-point (paper §5.2) --------------------------

  /// World rank of (component, local id).
  [[nodiscard]] minimpi::rank_t global_rank_of(std::string_view component,
                                               minimpi::rank_t local) const {
    return result_.directory.global_rank(component, local);
  }

  template <minimpi::Transferable T>
  void send(std::span<const T> values, std::string_view component,
            minimpi::rank_t local, minimpi::tag_t tag) const {
    world().send(values, global_rank_of(component, local), tag);
  }

  template <minimpi::Transferable T>
  void send(const T& value, std::string_view component, minimpi::rank_t local,
            minimpi::tag_t tag) const {
    send(std::span<const T>(&value, 1), component, local, tag);
  }

  template <minimpi::Transferable T>
  minimpi::Status recv(std::span<T> values, std::string_view component,
                       minimpi::rank_t local, minimpi::tag_t tag) const {
    return world().recv(values, global_rank_of(component, local), tag);
  }

  template <minimpi::Transferable T>
  minimpi::Status recv(T& value, std::string_view component,
                       minimpi::rank_t local, minimpi::tag_t tag) const {
    return recv(std::span<T>(&value, 1), component, local, tag);
  }

  // ---- inquiry (paper §5.3) -------------------------------------------------

  /// MPH_local_proc_id: rank within my (primary) component.
  [[nodiscard]] int local_proc_id() const { return comp_comm().rank(); }
  /// MPH_global_proc_id: rank within MPH_Global_World.
  [[nodiscard]] int global_proc_id() const { return world().rank(); }
  /// MPH_comp_name: my (primary) component's name-tag; for instances this
  /// is the expanded name (e.g. "Ocean2"), not the prefix.
  [[nodiscard]] const std::string& comp_name() const;
  /// MPH_comp_id: my (primary) component's id.
  [[nodiscard]] int comp_id() const;
  /// MPH_total_components across the application.
  [[nodiscard]] int total_components() const noexcept {
    return result_.directory.total_components();
  }
  /// Number of executables in the application.
  [[nodiscard]] int num_executables() const noexcept {
    return result_.directory.num_executables();
  }
  /// MPH_exe_low_proc_limit / MPH_exe_up_proc_limit: world-rank bounds of
  /// my executable.
  [[nodiscard]] minimpi::rank_t exe_low_proc_limit() const;
  [[nodiscard]] minimpi::rank_t exe_up_proc_limit() const;
  /// Index of my executable.
  [[nodiscard]] int exec_index() const noexcept { return result_.exec_index; }
  /// All components on this rank (several under §4.2 overlap).
  [[nodiscard]] std::vector<std::string> my_components() const;
  /// The global component table.
  [[nodiscard]] const Directory& directory() const noexcept {
    return result_.directory;
  }
  /// The handshake options this handle was built with (liveness policy,
  /// instance isolation, ...).
  [[nodiscard]] const HandshakeOptions& options() const noexcept {
    return result_.options;
  }

  // ---- liveness and failure containment -------------------------------------

  /// MPH_ping: true when no rank of `component` has failed.  Under MIME
  /// isolation (HandshakeOptions::isolate_instances) a dead ensemble member
  /// answers false while the rest of the job keeps running; the observation
  /// is cached in the directory (failed_components()) and cleared again
  /// when a healed component answers.  With LivenessOptions::attempts > 1 a
  /// dead peer is re-probed with backoff before reporting false, riding out
  /// the death-to-respawn window of a supervised job.
  bool ping(std::string_view component) const;

  /// Block until ping(component) holds, probing per the handshake's
  /// LivenessOptions (attempts / backoff / backoff_factor).  Throws
  /// PeerTimeoutError — naming the peer, the attempts made and the elapsed
  /// wait — when the budget runs out with the component still dead.
  void await_alive(std::string_view component) const;

  /// Structured failure of `component` (the root-cause rank, kill-point /
  /// operation, and exception text), when one is known from its failure
  /// domain or a job-wide abort.  nullopt while alive — and for collateral
  /// deaths whose root cause lies in another component.
  [[nodiscard]] std::optional<minimpi::AbortInfo> failure_of(
      std::string_view component) const;

  /// Throw ComponentFailedError unless ping(component) holds.
  void require_alive(std::string_view component) const;

  /// Ping every component; names of the dead ones, in component-id order.
  [[nodiscard]] std::vector<std::string> failed_components() const;

  /// Graceful teardown accounting for one rank.
  struct FinalizeReport {
    std::size_t drained_envelopes = 0;   ///< sent to me but never received
    std::size_t cancelled_requests = 0;  ///< my posted receives never matched
    [[nodiscard]] bool clean() const noexcept {
      return drained_envelopes == 0 && cancelled_requests == 0;
    }
  };

  /// MPH_finalize for this rank: flush redirected output, then drain this
  /// rank's mailbox, reporting every leaked envelope (messages addressed to
  /// this rank that it never received) and cancelled posted receive.  A
  /// clean() report proves this rank ended with no communication debt.
  /// Call once, as the last MPH operation of the rank.
  ///
  /// With mpicheck's leak audit enabled (JobOptions::check.leaks or
  /// MINIMPI_CHECK=leaks), the drain is folded into the job's CheckReport,
  /// the per-rank audit goes to the diagnostics channel, and a rank that
  /// finished with communication debt throws minimpi::LeakError.
  FinalizeReport finalize();

  // ---- instance arguments (paper §4.4) --------------------------------------

  /// Argument set of my (primary) component's registry line.
  [[nodiscard]] const ArgumentSet& arguments() const;

  /// MPH_get_argument("alpha", alpha): typed retrieval from my component's
  /// trailing registry-line tokens.  With several overlapping components on
  /// this rank, each component's line is searched in block order.
  template <class T>
  bool get_argument(std::string_view key, T& out) const {
    for (const int id : result_.my_component_ids) {
      if (result_.directory.component(id).args.get(key, out)) return true;
    }
    return false;
  }

  /// MPH_get_argument(field_num=n, field_val=out): positional field.
  bool get_argument_field(std::size_t field_num, std::string& out) const {
    for (const int id : result_.my_component_ids) {
      if (result_.directory.component(id).args.field(field_num, out)) {
        return true;
      }
    }
    return false;
  }

  // ---- SMP-node awareness (paper §9 further work (a)) -----------------------

  /// Node hosting this rank under `topology`.
  [[nodiscard]] int node_id(const minimpi::Topology& topology) const {
    return topology.node_of(global_proc_id());
  }

  /// Node-local slice of my (primary) component: the ranks of my component
  /// that share my SMP node.  Collective over the component communicator.
  [[nodiscard]] minimpi::Comm node_comm(
      const minimpi::Topology& topology) const {
    return minimpi::split_by_node(comp_comm(), topology);
  }

  // ---- dynamic reallocation (paper §9 further work (b)) ---------------------

  /// Re-run the handshake against a NEW registration file on the same
  /// world, with the same declaration this handle was created with.
  /// Within-executable processor allocation (component ranges of
  /// multi-component blocks, instance carving of multi-instance blocks)
  /// may change freely; executable extents are fixed by the launcher.
  /// Collective over the world.  The old handle stays fully usable — its
  /// communicators are independent contexts.
  [[nodiscard]] Mph remap(const RegistrySource& new_source,
                          HandshakeOptions options = {}) const;

  // ---- output redirection (paper §5.4) --------------------------------------

  /// MPH_redirect_output: route this rank's component output.  Local proc 0
  /// of each component writes to `<dir>/<comp_name>.log`; every other rank
  /// appends to `<dir>/mph_combined.log`.  The directory (created on
  /// demand) defaults to "logs" so log files stay out of the working tree.
  void redirect_output(const std::string& dir = "logs");

  /// The redirected stream (throws unless redirect_output was called).
  [[nodiscard]] std::ostream& out();

  /// Flush this rank's channel (partial lines included).
  void flush_output();

 private:
  explicit Mph(HandshakeResult result) : result_(std::move(result)) {}

  /// One liveness check of `record`, updating the directory's failure
  /// cache in both directions (mark on dead, clear on alive).
  bool probe_alive(const ComponentRecord& record) const;

  HandshakeResult result_;
  OutputChannel channel_;
  bool redirected_ = false;
};

}  // namespace mph
