#include "src/util/decision_tree.hpp"

namespace mph::util {

constexpr int kTraceVersion = 2;  ///< the envelope's "version"

DecisionTree::DecisionTree(std::uint64_t max_runs,
                           std::chrono::milliseconds budget)
    : max_runs_(max_runs),
      budget_(budget),
      start_(std::chrono::steady_clock::now()) {}

DecisionTree::DecisionTree(std::vector<Branch> trace)
    : path_(std::move(trace)), replay_(true) {}

void DecisionTree::diverge(std::string why) {
  if (status_.divergence.empty()) status_.divergence = std::move(why);
}

std::uint32_t DecisionTree::decide(Branch at) {
  if (!status_.divergence.empty()) return 0;
  const std::size_t depth = cursor_++;
  const auto diverge_here = [&](const std::string& what) {
    diverge("decision #" + std::to_string(depth) + what +
            (at.note.empty() ? "" : " (" + at.note + ")"));
    return 0U;
  };
  if (depth < path_.size()) {
    const Branch& want = path_[depth];
    if (want.shape == at.shape && want.options == at.options &&
        want.chosen < at.options) {
      return want.chosen;
    }
    return diverge_here(" diverged: the trace took option " +
                        std::to_string(want.chosen) + " of " +
                        std::to_string(want.options) + " at '" + want.shape +
                        "', the run met '" + at.shape + "' with " +
                        std::to_string(at.options) + " option(s)");
  }
  if (replay_) {
    return diverge_here(": the run makes more decisions than the trace's " +
                        std::to_string(path_.size()));
  }
  status_.pruned += at.pruned;
  at.chosen = 0;
  path_.push_back(std::move(at));
  return 0;
}

bool DecisionTree::end_run(bool stop) {
  status_.runs += 1;
  pending_ = false;
  if (cursor_ < path_.size()) {
    diverge("the run ended after " + std::to_string(cursor_) + " of " +
            std::to_string(path_.size()) + " recorded decisions");
  }
  cursor_ = 0;
  if (stop || !status_.divergence.empty()) return false;
  // Backtrack: drop the exhausted suffix, advance the deepest open one.  A
  // replay is complete after its one run.
  while (!replay_ && !path_.empty() &&
         path_.back().chosen + 1 >= path_.back().options) {
    path_.pop_back();
  }
  if (replay_ || path_.empty()) {
    status_.complete = true;
    return false;
  }
  path_.back().chosen += 1;
  pending_ = true;
  // Budgets are checked with the advanced alternative pending, so the
  // frontier reports it as unexplored instead of dropping it.
  status_.run_budget_exhausted = max_runs_ != 0 && status_.runs >= max_runs_;
  status_.time_budget_exhausted =
      !status_.run_budget_exhausted && budget_.count() > 0 &&
      std::chrono::steady_clock::now() - start_ >= budget_;
  return !status_.run_budget_exhausted && !status_.time_budget_exhausted;
}

std::uint64_t DecisionTree::frontier() const noexcept {
  std::uint64_t open = status_.runs + status_.pruned + (pending_ ? 1 : 0);
  for (const Branch& b : path_) {
    if (b.chosen < b.options) open += b.options - 1 - b.chosen;
  }
  return open;
}

// ---------------------------------------------------------------------------
// Counterexample traces
// ---------------------------------------------------------------------------

std::string json_lines(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + items[i];
  }
  return out + (items.empty() ? "]" : "\n  ]");
}

std::string write_trace(
    std::string_view kind,
    const std::vector<std::pair<std::string, std::string>>& header,
    const std::vector<std::string>& decisions) {
  std::string out = "{\n  \"kind\": " + json_quoted(kind) +
                    ",\n  \"version\": " + std::to_string(kTraceVersion);
  for (const auto& [key, value] : header) {
    out += ",\n  " + json_quoted(key) + ": " + value;
  }
  return out + ",\n  \"decisions\": " + json_lines(decisions) + "\n}\n";
}

JsonFields::JsonFields(const JsonValue& object, std::string_view what)
    : object_(object), what_(what), taken_(object.members().size(), false) {}

const JsonValue* JsonFields::take(std::string_view key) {
  const auto& members = object_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == key) {
      taken_[i] = true;
      return &members[i].second;
    }
  }
  return nullptr;
}

void JsonFields::done() const {
  for (std::size_t i = 0; i < taken_.size(); ++i) {
    if (!taken_[i]) {
      throw std::runtime_error("unknown " + what_ + " key \"" +
                               object_.members()[i].first + "\"");
    }
  }
}

void read_trace(const std::string& text, std::string_view kind,
                const std::function<void(JsonFields& header)>& header,
                const std::function<void(JsonFields& decision)>& decision) {
  try {
    const JsonValue doc = JsonValue::parse(text);
    JsonFields top(doc, "trace");
    const JsonValue* version = top.take("version");
    if (version == nullptr || version->as_int() != kTraceVersion) {
      throw std::runtime_error(
          "unsupported trace version " +
          (version == nullptr ? std::string("(none)")
                              : std::to_string(version->as_int())) +
          ", expected " + std::to_string(kTraceVersion));
    }
    const JsonValue* doc_kind = top.take("kind");
    if (doc_kind == nullptr || doc_kind->as_string() != kind) {
      throw std::runtime_error("not a \"" + std::string(kind) + "\" trace");
    }
    if (const JsonValue* decisions = top.take("decisions")) {
      for (const JsonValue& d : decisions->items()) {
        JsonFields fields(d, "decision");
        decision(fields);
        fields.done();
      }
    }
    header(top);
    top.done();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("trace parse error: ") + e.what());
  }
}

}  // namespace mph::util
