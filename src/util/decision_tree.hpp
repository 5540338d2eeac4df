// decision_tree.hpp — the exploration core of the repo's two stateless
// model checkers.
//
// `mph verify` branches on wildcard matches and `mph_racer` on atomic
// interleavings, reads-from and CAS outcomes, but both run the program
// from scratch once per schedule and steer it through a sequence of
// branch points.  DecisionTree is that shared machine:
//   * the decision stack, explored depth-first with replay-from-prefix:
//     each run forces the recorded choice at every decision of the prefix
//     and takes alternative 0 past it;
//   * divergence: a branch point whose shape or option count differs from
//     the one recorded at its depth, or a run that makes more or fewer
//     decisions than its forced trace, voids the exploration;
//   * backtracking: drop the exhausted suffix, advance the deepest open
//     decision;
//   * the run and time budgets, and the sound frontier lower bound M of
//     "explored N of >= M";
//   * replay, which is one run with a whole dumped trace forced;
//   * the counterexample JSON envelope and its one strict reader.
// What a branch point is stays with each tool: verify's quiescence fence,
// wildcard candidates and race classification; the racer's memory model,
// sleep sets and preemption bound.
//
// Not thread-safe: the calls of one run must be serialized by the caller
// (verify decides from the scheduler's monitor thread and from rank
// threads under its own mutex; the racer under its turnstile lock).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/json.hpp"

namespace mph::util {

/// One branch point of a run.
struct Branch {
  std::uint32_t chosen = 0;   ///< alternative taken in this run
  std::uint32_t options = 1;  ///< alternatives open at this point
  /// Further alternatives a bound cut: never run, but counted in the
  /// frontier so truncation by the bound is reported, not hidden.
  std::uint32_t pruned = 0;
  std::string shape;  ///< what a replay must meet here again (kind, set)
  std::string note;   ///< context for traces and messages; not compared
};

class DecisionTree {
 public:
  /// Explore depth-first within `max_runs` runs and a wall-clock `budget`
  /// (each 0 = unlimited).
  DecisionTree(std::uint64_t max_runs, std::chrono::milliseconds budget);
  /// Replay: exactly one run, with every decision of `trace` forced.
  explicit DecisionTree(std::vector<Branch> trace);

  /// The alternative to take at the run's next branch point (`at.chosen`
  /// is ignored).  Always below at.options; 0 once the run diverged.
  std::uint32_t decide(Branch at);

  /// Close the current run.  True when another run should start; false
  /// after a replay, a divergence, `stop` (the caller's own reason, such
  /// as a failure, which keeps path() as that run's), a complete tree or
  /// an exhausted budget.
  bool end_run(bool stop = false);

  /// Where the exploration stands.
  struct Status {
    std::uint64_t runs = 0;
    std::uint64_t pruned = 0;  ///< alternatives a bound cut, over all runs
    bool complete = false;     ///< every alternative was run
    bool run_budget_exhausted = false;
    bool time_budget_exhausted = false;
    std::string divergence;  ///< non-empty once a run diverged
  };
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Sound lower bound on the total run count: runs, every untried
  /// alternative on the stack, the advanced one not yet run, and every
  /// alternative a bound pruned.  Equals runs + pruned when complete.
  [[nodiscard]] std::uint64_t frontier() const noexcept;

  /// The forced prefix; after a stopped run, that run's whole schedule.
  [[nodiscard]] const std::vector<Branch>& path() const noexcept {
    return path_;
  }

 private:
  void diverge(std::string why);

  std::vector<Branch> path_;
  std::size_t cursor_ = 0;  ///< decisions taken by the current run
  bool replay_ = false;
  bool pending_ = false;  ///< advanced an alternative that has not run
  std::uint64_t max_runs_ = 0;
  std::chrono::milliseconds budget_{0};
  std::chrono::steady_clock::time_point start_;
  Status status_;
};

// ---------------------------------------------------------------------------
// Counterexample traces: one envelope for both tools,
//   {"kind": K, "version": 2, <header members>, "decisions": [...]}
// with one decision object per line.
// ---------------------------------------------------------------------------

/// A JSON array of `items` (each already JSON), one per line.
[[nodiscard]] std::string json_lines(const std::vector<std::string>& items);

/// The envelope; `header` values are JSON text (see json_quoted).
[[nodiscard]] std::string write_trace(
    std::string_view kind,
    const std::vector<std::pair<std::string, std::string>>& header,
    const std::vector<std::string>& decisions);

/// One JSON object read strictly: members are taken by name, and done()
/// rejects the first member nobody took.
class JsonFields {
 public:
  /// Throws when `object` is not a JSON object.
  JsonFields(const JsonValue& object, std::string_view what);

  /// The member named `key`, now taken; nullptr when absent.
  [[nodiscard]] const JsonValue* take(std::string_view key);

  /// Read member `key`, when present, into `out`: a bool, a string, a
  /// 64-bit unsigned, a narrower integer (range-checked, never wrapped)
  /// or a vector of narrower integers.
  template <class T>
  void get(std::string_view key, T& out);

  /// Throws `unknown <what> key "k"` for a member not taken.
  void done() const;

 private:
  const JsonValue& object_;
  std::string what_;
  std::vector<bool> taken_;
};

/// Read write_trace's envelope strictly: `version` and `kind` must be
/// present and match; each decision object goes to `decision` and the
/// remaining top-level members to `header`, and every member either takes
/// must be known.  Every error, including JSON syntax (with line and
/// column), throws std::runtime_error "trace parse error: ...".
void read_trace(const std::string& text, std::string_view kind,
                const std::function<void(JsonFields& header)>& header,
                const std::function<void(JsonFields& decision)>& decision);

/// `value` narrowed to T; a value that does not fit throws
/// `"key" value N out of range` instead of wrapping.
template <class T>
[[nodiscard]] T json_integer(const JsonValue& value, std::string_view key) {
  const long long n = value.as_int();
  if (n < static_cast<long long>(std::numeric_limits<T>::min()) ||
      n > static_cast<long long>(std::numeric_limits<T>::max())) {
    throw std::runtime_error("\"" + std::string(key) + "\" value " +
                             std::to_string(n) + " out of range");
  }
  return static_cast<T>(n);
}

template <class T>
void JsonFields::get(std::string_view key, T& out) {
  const JsonValue* value = take(key);
  if (value == nullptr) return;
  if constexpr (std::is_same_v<T, bool>) {
    out = value->as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = value->as_string();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = value->as_uint();
  } else if constexpr (std::is_integral_v<T>) {
    out = json_integer<T>(*value, key);
  } else {
    out.clear();
    for (const JsonValue& item : value->items()) {
      out.push_back(json_integer<typename T::value_type>(item, key));
    }
  }
}

}  // namespace mph::util
