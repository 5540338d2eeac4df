// layout.hpp — the pure (communication-free) core of the §6 handshake:
// matching executable declarations against the registration file,
// validating processor counts, and building the global Directory.
//
// The same code serves three callers:
//   * handshake() — after allgathering live signatures (the real setup);
//   * plan_layout() — a dry run over a *planned* job description, letting
//     deployment scripts and `mph plan` validate a
//     registration file against a command file before burning a batch-queue
//     slot;
//   * property tests — which assert that the in-job handshake and the dry
//     run agree exactly.
#pragma once

#include <string>
#include <vector>

#include "src/mph/directory.hpp"
#include "src/mph/registry.hpp"

namespace mph {

struct LocalDeclaration;  // handshake.hpp

/// Signature string identifying a declaration during the allgather.
[[nodiscard]] std::string declaration_signature(const LocalDeclaration& decl);

/// Parse "C:a,b,c" / "I:prefix" back into a declaration.  A
/// "|contract=<hex>" suffix (the mph_proto contract-version pin) is not
/// part of the declaration and is stripped.
[[nodiscard]] LocalDeclaration parse_signature(const std::string& sig);

/// A maximal run of consecutive world ranks sharing one declaration — one
/// executable, as observed at runtime or as planned.
struct ExecutableRun {
  std::string signature;
  minimpi::rank_t base = 0;
  int size = 0;
};

/// Collapse per-rank signatures into executable runs.
[[nodiscard]] std::vector<ExecutableRun> find_runs(
    const std::vector<std::string>& signatures);

/// Outcome of matching runs against the registration file.
struct LayoutResolution {
  Directory directory;
  /// For each run, the index of the registry block it matched.
  std::vector<int> block_of_run;
};

/// Match every run to exactly one registry block, validate sizes/ranges,
/// and build the Directory (component ids in registration-file order).
/// Throws SetupError on any disagreement — identical on every caller since
/// the inputs are identical.
[[nodiscard]] LayoutResolution resolve_layout(
    const Registry& registry, const std::vector<ExecutableRun>& runs);

/// One executable of a *planned* job (command-file line).
struct PlannedExecutable {
  /// What the executable will declare: component names, or the instance
  /// prefix when `is_instance`.
  std::vector<std::string> names;
  bool is_instance = false;
  int nprocs = 1;
};

/// Dry-run the full matching/validation without launching anything;
/// returns the Directory the real handshake would build for this job.
[[nodiscard]] Directory plan_layout(
    const Registry& registry, const std::vector<PlannedExecutable>& job);

}  // namespace mph
