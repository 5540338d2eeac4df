// handshake.hpp — the component registration / handshaking algorithm
// (paper §6 "Algorithms and Implementation for MPH").
//
// Input: each rank's world communicator plus the *local declaration* its
// executable made (the names passed to MPH_components_setup, or the prefix
// passed to MPH_multi_instance) and the registration file.  No rank knows
// which executables occupy other processors — discovering that is the
// point.
//
// Steps, following the paper:
//   1. every rank broadcasts/receives the registration file (done by the
//      caller; see Mph::components_setup) and allgathers its executable's
//      declaration signature;
//   2. maximal runs of consecutive ranks with the same signature are the
//      executables (launchers assign contiguous, non-overlapping ranks);
//   3. each run is matched to exactly one registry block by component
//      names (or instance-name prefix), and sizes are cross-validated;
//   4. component communicators are created:
//        §6.1 — if every executable is single-component, ONE
//               MPI_Comm_split of world with color = component id;
//        §6.2 — otherwise split world by executable, then inside each
//               multi-component executable either one split (components
//               disjoint on processors) or one split per component
//               (components overlap).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/mph/directory.hpp"
#include "src/mph/registry.hpp"

namespace mph {

/// What this executable told MPH about itself.
struct LocalDeclaration {
  /// True for MPH_multi_instance (names holds exactly the prefix);
  /// false for MPH_components_setup (names holds the ordered component
  /// name-tags of this executable).
  bool is_instance = false;
  std::vector<std::string> names;
};

/// Retry policy for liveness probes (Mph::ping / await_alive).  The
/// defaults keep ping a single instantaneous check; a component that runs
/// under a respawning supervisor (JobOptions::respawn) sets attempts > 1 so
/// a probe rides out the window between a member's death and its heal.
struct LivenessOptions {
  /// Total probe attempts per ping before reporting dead (>= 1).
  int attempts = 1;
  /// Wait before the second attempt; scaled by backoff_factor after each
  /// further failure.  Zero retries immediately.
  std::chrono::milliseconds backoff{0};
  double backoff_factor = 2.0;
};

struct HandshakeOptions {
  /// MIME member isolation: register each ensemble instance of a
  /// Multi_Instance block into its own failure domain
  /// (minimpi::Job::join_domain).  A rank failure inside one instance then
  /// aborts only that member — siblings and other components keep running,
  /// and can detect the loss via Mph::ping.  Off by default: without
  /// isolation a failure anywhere aborts the whole job promptly, which is
  /// the friendlier behaviour for applications that never check liveness.
  bool isolate_instances = false;

  /// Liveness probe retry policy, consulted by Mph::ping and await_alive.
  LivenessOptions liveness;

  /// Contract-version pin (mph_proto).  When non-empty — conventionally
  /// proto::contract_hash_hex() of the contract text this executable was
  /// built against — the pin rides along in the declaration signature as a
  /// "|contract=<8hex>" suffix.  The handshake fails with SetupError at
  /// registration time when two executables carry *different* non-empty
  /// pins, so mismatched contract versions are caught before the first
  /// message.  Executables without a pin coexist with pinned ones
  /// (gradual adoption), and an empty pin adds zero bytes and zero work.
  std::string contract;
};

/// Everything a rank learns from the handshake.
struct HandshakeResult {
  Directory directory;
  minimpi::Comm world;      ///< MPH_Global_World
  minimpi::Comm exec_comm;  ///< communicator of this rank's executable
  int exec_index = -1;      ///< index into directory.execs()
  LocalDeclaration declaration;  ///< what this executable declared (for remap)

  /// Components covering this rank, in block order (usually one; several
  /// under §4.2 processor overlap).  `my_component_comms[i]` is the
  /// communicator of `my_component_ids[i]`.
  std::vector<int> my_component_ids;
  std::vector<minimpi::Comm> my_component_comms;

  /// The options the handshake ran with, kept so later liveness queries
  /// (Mph::ping retry policy) can consult them.
  HandshakeOptions options;
};

/// Run the handshake.  Collective over `world`; throws SetupError when the
/// declarations and the registration file disagree.
[[nodiscard]] HandshakeResult handshake(const minimpi::Comm& world,
                                        const Registry& registry,
                                        const LocalDeclaration& declaration,
                                        const HandshakeOptions& options = {});

/// Blackboard keys under which every failure-domain member (the ranks that
/// can be respawned) publishes the established layout
/// (minimpi::Job::put_shared) during handshake(), before it builds its
/// communicators, for later rejoin_handshake() calls by respawned ranks.
inline constexpr const char* kRegistryKey = "mph.registry";
inline constexpr const char* kSignaturesKey = "mph.signatures";

/// Re-run the handshake for a RESPAWNED ensemble member without involving
/// any surviving rank.  The registry text and per-rank signature vector are
/// read back from the job blackboard (published by the original handshake),
/// the directory is rebuilt with the same pure resolve_layout — so it is
/// identical to every survivor's copy — and the only collective performed
/// is Comm::create_ordered_world over the member's own ranks, which are
/// exactly the ranks being respawned together.
///
/// Degradation vs. the full handshake: exec_comm is the member communicator
/// (not the whole multi-instance executable's), because rebuilding the
/// executable communicator would require a collective with surviving
/// sibling members.  Ensemble members communicate via their instance comm
/// and name-addressed p2p, so this is invisible in practice.
[[nodiscard]] HandshakeResult rejoin_handshake(
    const minimpi::Comm& world, const LocalDeclaration& declaration,
    const HandshakeOptions& options = {});

/// Signature string identifying a declaration during the allgather
/// (exposed for tests).
[[nodiscard]] std::string declaration_signature(const LocalDeclaration& decl);

/// declaration_signature() plus the "|contract=<hex>" suffix when the
/// options carry a contract pin (exposed for tests).
[[nodiscard]] std::string pinned_signature(const LocalDeclaration& decl,
                                           const HandshakeOptions& options);

/// The contract pin embedded in an allgathered signature; empty when the
/// signature is unpinned.
[[nodiscard]] std::string signature_contract_pin(const std::string& sig);

}  // namespace mph
