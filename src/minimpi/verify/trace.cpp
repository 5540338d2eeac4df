#include "src/minimpi/verify/trace.hpp"

#include <cstddef>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/minimpi/error.hpp"
#include "src/util/json.hpp"

namespace minimpi::verify {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string Trace::to_json() const {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"seed\": " << seed
      << ",\n  \"decisions\": [";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"step\": " << i << ", \"rank\": " << d.rank << ", \"op\": \""
        << d.op << "\", \"context\": " << d.context << ", \"tag\": " << d.tag
        << ", \"chose\": " << d.chose << ", \"candidates\": [";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      if (c != 0) out << ", ";
      out << d.candidates[c];
    }
    out << "], \"immediate\": " << (d.immediate ? "true" : "false") << "}";
  }
  out << (decisions.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Reader — util::JsonValue does the JSON; this only maps keys to fields.
// ---------------------------------------------------------------------------

namespace {

using mph::util::JsonValue;

/// An integer field narrowed to its C++ type, rejecting values that do
/// not fit instead of wrapping them.
template <class T>
T integer(const JsonValue& value, const std::string& key) {
  const long long n = value.as_int();
  if (n < static_cast<long long>(std::numeric_limits<T>::min()) ||
      n > static_cast<long long>(std::numeric_limits<T>::max())) {
    throw std::runtime_error("\"" + key + "\" value " + std::to_string(n) +
                             " out of range");
  }
  return static_cast<T>(n);
}

Decision decision_from_json(const JsonValue& doc) {
  Decision d;
  for (const auto& [key, value] : doc.members()) {
    if (key == "step") {
      (void)value.as_int();  // informational; order in the array is binding
    } else if (key == "rank") {
      d.rank = integer<rank_t>(value, key);
    } else if (key == "op") {
      d.op = value.as_string();
    } else if (key == "context") {
      d.context = integer<context_t>(value, key);
    } else if (key == "tag") {
      d.tag = integer<tag_t>(value, key);
    } else if (key == "chose") {
      d.chose = integer<rank_t>(value, key);
    } else if (key == "candidates") {
      for (const JsonValue& c : value.items()) {
        d.candidates.push_back(integer<rank_t>(c, key));
      }
    } else if (key == "immediate") {
      d.immediate = value.as_bool();
    } else {
      throw std::runtime_error("unknown decision key \"" + key + "\"");
    }
  }
  return d;
}

}  // namespace

Trace Trace::from_json(const std::string& text) {
  try {
    const JsonValue doc = JsonValue::parse(text);
    Trace trace;
    for (const auto& [key, value] : doc.members()) {
      if (key == "seed") {
        trace.seed = value.as_uint();
      } else if (key == "version") {
        if (value.as_int() != 1) {
          throw std::runtime_error("unsupported trace version " +
                                   std::to_string(value.as_int()));
        }
      } else if (key == "decisions") {
        for (const JsonValue& d : value.items()) {
          trace.decisions.push_back(decision_from_json(d));
        }
      } else {
        throw std::runtime_error("unknown key \"" + key + "\"");
      }
    }
    return trace;
  } catch (const std::runtime_error& e) {
    throw Error(Errc::invalid_argument,
                std::string("trace parse error: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

std::string Trace::to_string(
    const std::function<std::string(rank_t)>& label) const {
  const auto name = [&](rank_t r) {
    std::string who = label ? label(r) : std::string{};
    if (who.empty()) who = "rank";
    return who + "[" + std::to_string(r) + "]";
  };
  std::ostringstream out;
  out << "decision trace (" << decisions.size() << " step(s), seed " << seed
      << ")";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out << "\n  #" << i << " " << name(d.rank) << " " << d.op << " <- "
        << name(d.chose) << " (context=" << d.context << ", tag=";
    if (d.tag == any_tag) {
      out << "*";
    } else {
      out << d.tag;
    }
    out << ") candidates={";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      if (c != 0) out << ",";
      out << d.candidates[c];
    }
    out << "}";
    if (d.immediate) out << " [immediate]";
  }
  return out.str();
}

}  // namespace minimpi::verify
