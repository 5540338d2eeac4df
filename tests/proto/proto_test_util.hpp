// Shared helpers for mph_proto tests: load shipped contracts and golden
// expectation files by basename, with origins pinned to the basename so
// golden texts stay machine-independent.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/proto/contract.hpp"
#include "src/proto/parser.hpp"
#include "src/util/strings.hpp"

#ifndef MPH_CONTRACT_DIR
#error "MPH_CONTRACT_DIR must point at examples/contracts"
#endif
#ifndef MPH_PROTO_GOLDEN_DIR
#error "MPH_PROTO_GOLDEN_DIR must point at tests/proto/golden"
#endif

namespace mph::proto::testing {

inline std::string read_file(const std::string& path) {
  std::optional<std::string> text = util::read_file(path);
  if (!text) throw std::runtime_error("cannot read " + path);
  return std::move(*text);
}

/// Parse a shipped contract with its origin pinned to the bare basename,
/// so findings say "at scse.mphc:7" regardless of the checkout path.
inline Contract shipped_contract(const std::string& basename) {
  const std::string text =
      read_file(std::string(MPH_CONTRACT_DIR) + "/" + basename);
  return parse_contract(text, basename);
}

inline std::string golden(const std::string& basename) {
  return read_file(std::string(MPH_PROTO_GOLDEN_DIR) + "/" + basename);
}

}  // namespace mph::proto::testing
