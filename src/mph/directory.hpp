// directory.hpp — the global component table produced by the handshake.
//
// After MPH setup, every rank holds an identical Directory: for each
// component (in registration-file order, which defines the component ids of
// paper §6) its name, owning executable, inclusive world-rank range, and
// runtime arguments.  The directory answers every §5.2/§5.3 query:
// translating (component-name, local id) to a world rank, processor limits
// of an executable, component counts, and name lookups with helpful
// diagnostics.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/minimpi/types.hpp"
#include "src/mph/arguments.hpp"
#include "src/mph/registry.hpp"

namespace mph {

/// One registered component, with its placement resolved to world ranks.
struct ComponentRecord {
  std::string name;
  int component_id = -1;   ///< dense id in registration-file order
  int exec_index = -1;     ///< index into Directory::execs()
  BlockKind kind = BlockKind::single;
  minimpi::rank_t global_low = -1;   ///< first world rank (inclusive)
  minimpi::rank_t global_high = -1;  ///< last world rank (inclusive)
  ArgumentSet args;

  [[nodiscard]] int size() const noexcept {
    return global_high - global_low + 1;
  }
  [[nodiscard]] bool covers_world_rank(minimpi::rank_t world) const noexcept {
    return world >= global_low && world <= global_high;
  }
};

/// One executable of the running job.
struct ExecRecord {
  int exec_index = -1;
  BlockKind kind = BlockKind::single;
  minimpi::rank_t base = -1;  ///< first world rank
  int size = 0;               ///< number of world ranks
  std::vector<int> component_ids;  ///< components living in this executable

  [[nodiscard]] minimpi::rank_t up_limit() const noexcept {
    return base + size - 1;
  }
};

class Directory {
 public:
  Directory() = default;
  Directory(std::vector<ComponentRecord> components,
            std::vector<ExecRecord> execs);

  [[nodiscard]] int total_components() const noexcept {
    return static_cast<int>(components_.size());
  }
  [[nodiscard]] int num_executables() const noexcept {
    return static_cast<int>(execs_.size());
  }

  [[nodiscard]] const std::vector<ComponentRecord>& components()
      const noexcept {
    return components_;
  }
  [[nodiscard]] const std::vector<ExecRecord>& execs() const noexcept {
    return execs_;
  }

  /// Component by id (registration-file order).
  [[nodiscard]] const ComponentRecord& component(int component_id) const;

  /// Component by name; throws LookupError naming the candidates.
  [[nodiscard]] const ComponentRecord& component(std::string_view name) const;

  [[nodiscard]] bool has_component(std::string_view name) const noexcept {
    return by_name_.contains(name);
  }

  /// World rank of `local_rank` within component `name` — the §5.2
  /// translation behind "send to Process 3 on ocean".
  [[nodiscard]] minimpi::rank_t global_rank(std::string_view name,
                                            minimpi::rank_t local_rank) const;

  /// Local rank of a world rank within component `name`, or -1.
  [[nodiscard]] minimpi::rank_t local_rank(std::string_view name,
                                           minimpi::rank_t world_rank) const;

  /// Components covering a world rank (more than one under §4.2 overlap).
  [[nodiscard]] std::vector<int> components_covering(
      minimpi::rank_t world_rank) const;

  /// Executable covering a world rank.
  [[nodiscard]] const ExecRecord& exec_of_world_rank(
      minimpi::rank_t world_rank) const;

  /// Names of every component, in component-id order.
  [[nodiscard]] std::vector<std::string> component_names() const;

  // --- runtime failure marks ------------------------------------------------
  // Each rank owns its Directory copy, so marks are a rank-local cache of
  // liveness observations (written by Mph::ping) — no synchronization.

  /// Remember that `component_id` was observed dead.
  void mark_failed(int component_id) const { failed_.insert(component_id); }

  /// Forget a death observation — called by Mph::ping when a previously
  /// dead component answers again (its failure domain was healed by a
  /// respawn).  Without this the cache is sticky and a healed member would
  /// stay in failed_components() forever.
  void clear_failed(int component_id) const { failed_.erase(component_id); }

  [[nodiscard]] bool is_failed(int component_id) const noexcept {
    return failed_.contains(component_id);
  }

  /// Names of every component marked dead, in component-id order.
  [[nodiscard]] std::vector<std::string> failed_components() const {
    std::vector<std::string> names;
    for (const int id : failed_) {
      names.push_back(components_[static_cast<std::size_t>(id)].name);
    }
    return names;
  }

  /// Human-readable configuration table (the banner the Fortran MPH
  /// printed at startup): one line per executable and per component with
  /// kind, world-rank range, and arguments.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<ComponentRecord> components_;
  std::vector<ExecRecord> execs_;
  std::map<std::string, int, std::less<>> by_name_;
  mutable std::set<int> failed_;  ///< rank-local liveness cache (see above)
};

}  // namespace mph
