// registry.hpp — the component registration file ("processors_map.in").
//
// The registration file is MPH's single point of runtime configuration
// (paper §3: "The number of components and executables, names of each
// components, processor allocation are all determined by a component
// registration file").  Grammar, exactly as the paper's examples:
//
//   BEGIN
//   Multi_Component_Begin      ! a multi-component executable
//   atmosphere 0 15
//   land       0 15            ! components may overlap on processors
//   chemistry  16 19
//   Multi_Component_End
//   Multi_Instance_Begin       ! a multi-instance (ensemble) executable
//   Ocean1 0 15  inf1 outf1 alpha=3 debug=on
//   Ocean2 16 31 inf2 outf2 beta=4.5
//   Multi_Instance_End
//   coupler                    ! a single-component executable
//   END
//
// `!` and `#` introduce comments; keywords are case-insensitive; names are
// arbitrary tags (never hardcoded — §3 characteristic (a)).  Processor
// ranges are *executable-relative* and inclusive.  Up to 5 trailing tokens
// per line carry instance arguments (§4.4).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/mph/arguments.hpp"

namespace mph {

/// How an executable block integrates its components (paper §2 modes).
enum class BlockKind {
  single,           ///< single-component executable (SCME line)
  multi_component,  ///< Multi_Component_Begin/End block (MCSE/MCME)
  multi_instance,   ///< Multi_Instance_Begin/End block (MIME ensembles)
};

[[nodiscard]] constexpr const char* block_kind_name(BlockKind kind) noexcept {
  switch (kind) {
    case BlockKind::single: return "single-component";
    case BlockKind::multi_component: return "multi-component";
    case BlockKind::multi_instance: return "multi-instance";
  }
  return "?";
}

/// One component line of the registration file.
struct ComponentEntry {
  std::string name;
  /// Inclusive processor range, relative to the executable's first rank.
  /// Both -1 when the line carries no range (allowed only for
  /// single-component executables, whose extent comes from the launcher).
  int low = -1;
  int high = -1;
  ArgumentSet args;
  int line = 0;  ///< 1-based source line, for diagnostics

  [[nodiscard]] bool has_range() const noexcept { return low >= 0; }
  [[nodiscard]] int range_size() const noexcept {
    return has_range() ? high - low + 1 : 0;
  }
};

/// One executable of the application: a single-component line or a
/// Multi_Component/Multi_Instance block.
struct ExecutableBlock {
  BlockKind kind = BlockKind::single;
  std::vector<ComponentEntry> components;
  int line = 0;

  /// Number of processors this block requires; 0 when unconstrained
  /// (a single-component executable without an explicit range).
  [[nodiscard]] int required_size() const noexcept;

  /// Ordered component names.
  [[nodiscard]] std::vector<std::string> names() const;
};

/// Parsed, validated registration file.
class Registry {
 public:
  /// Parse registry text.  Throws RegistryError with a line number on any
  /// violation (missing BEGIN/END, bad range, duplicate names, nested or
  /// unterminated blocks, >10 components per executable, >5 argument
  /// tokens per line, ...).
  static Registry parse(std::string_view text);

  [[nodiscard]] const std::vector<ExecutableBlock>& blocks() const noexcept {
    return blocks_;
  }

  [[nodiscard]] int num_executables() const noexcept {
    return static_cast<int>(blocks_.size());
  }

  /// Total component count across every block (instances count singly).
  [[nodiscard]] int total_components() const noexcept;

  [[nodiscard]] bool has_component(std::string_view name) const noexcept;

  /// Serialize back to registry-file text (stable round-trip: parse ∘
  /// to_text ∘ parse is the identity on the model).
  [[nodiscard]] std::string to_text() const { return to_text(blocks_); }

  /// The registry-file text of `blocks` (RegistryBuilder writes with it).
  [[nodiscard]] static std::string to_text(
      const std::vector<ExecutableBlock>& blocks);

  /// Paper limit: "Each executable could contain up to 10 components."
  static constexpr int kMaxComponentsPerExecutable = 10;
  /// Paper limit: "Up to 5 character strings can be appended to each line."
  static constexpr int kMaxArgumentTokens = 5;

 private:
  std::vector<ExecutableBlock> blocks_;
};

}  // namespace mph
