// diagnostics.hpp — process-wide diagnostic logging for the substrate
// itself (not for component output; that is mph::OutputChannel).
//
// minimpi runs many rank-threads in one process, so diagnostics must be
// line-atomic and rank-tagged.  Verbosity is controlled at runtime via
// set_level() or the MPH_DIAG environment variable (off|error|warn|info|trace).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace mph::util {

enum class DiagLevel : int {
  off = 0,
  error = 1,
  warn = 2,
  info = 3,
  trace = 4
};

/// Set the global diagnostic threshold.
void set_diag_level(DiagLevel level) noexcept;

/// Current threshold (reads MPH_DIAG once on first use).
[[nodiscard]] DiagLevel diag_level() noexcept;

/// Name the calling thread for diagnostics (e.g. "rank 3").
void set_thread_label(std::string label);

/// Label of the calling thread ("-" when unset).
[[nodiscard]] std::string_view thread_label() noexcept;

/// Emit one line, atomically, to stderr if `level` passes the threshold.
void diag_emit(DiagLevel level, std::string_view message);

namespace detail {
/// Stream-style builder that emits on destruction.
class DiagLine {
 public:
  explicit DiagLine(DiagLevel level) noexcept : level_(level) {}
  DiagLine(const DiagLine&) = delete;
  DiagLine& operator=(const DiagLine&) = delete;
  ~DiagLine() { diag_emit(level_, stream_.str()); }

  template <class T>
  DiagLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  DiagLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

/// Usage: MPH_DIAG_LOG(info) << "handshake done in " << t << "s";
#define MPH_DIAG_LOG(lvl)                                               \
  if (::mph::util::diag_level() >= ::mph::util::DiagLevel::lvl)         \
  ::mph::util::detail::DiagLine(::mph::util::DiagLevel::lvl)

}  // namespace mph::util
