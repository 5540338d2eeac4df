#include "src/minimpi/verify/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <stdexcept>

#include "src/minimpi/error.hpp"

namespace minimpi::verify {

namespace {

constexpr std::string_view kKind = "mph_verify_trace";

}  // namespace

std::string Trace::to_json() const {
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    std::ostringstream row;
    row << "{\"step\": " << i << ", \"rank\": " << d.rank
        << ", \"op\": " << mph::util::json_quoted(d.op)
        << ", \"context\": " << d.context << ", \"tag\": " << d.tag
        << ", \"chose\": " << d.chose << ", \"candidates\": [";
    for (std::size_t c = 0; c < d.candidates.size(); ++c) {
      row << (c == 0 ? "" : ", ") << d.candidates[c];
    }
    row << "], \"immediate\": " << (d.immediate ? "true" : "false") << "}";
    rows.push_back(row.str());
  }
  return mph::util::write_trace(kKind, {{"seed", std::to_string(seed)}},
                                rows);
}

Trace Trace::from_json(const std::string& text) {
  Trace trace;
  try {
    mph::util::read_trace(
        text, kKind,
        [&](mph::util::JsonFields& header) { header.get("seed", trace.seed); },
        [&](mph::util::JsonFields& fields) {
          Decision& d = trace.decisions.emplace_back();
          std::uint64_t step = 0;  // informational; array order binds
          fields.get("step", step);
          fields.get("rank", d.rank);
          fields.get("op", d.op);
          fields.get("context", d.context);
          fields.get("tag", d.tag);
          fields.get("chose", d.chose);
          fields.get("candidates", d.candidates);
          fields.get("immediate", d.immediate);
        });
  } catch (const std::runtime_error& e) {
    throw Error(Errc::invalid_argument, e.what());
  }
  return trace;
}

mph::util::Branch Decision::branch() const {
  mph::util::Branch b;
  b.chosen = static_cast<std::uint32_t>(
      std::find(candidates.begin(), candidates.end(), chose) -
      candidates.begin());
  b.options = static_cast<std::uint32_t>(candidates.size());
  b.shape = "{";
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    b.shape += (c == 0 ? "" : ",") + std::to_string(candidates[c]);
  }
  b.shape += "}";
  b.note = "rank " + std::to_string(rank) + " " + op + ", context " +
           std::to_string(context) + ", tag " + std::to_string(tag);
  return b;
}

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

std::string rank_name(const std::function<std::string(rank_t)>& label,
                      rank_t rank) {
  std::string who = label ? label(rank) : std::string{};
  return (who.empty() ? "rank" : who) + "[" + std::to_string(rank) + "]";
}

std::string tag_name(tag_t tag) {
  return tag == any_tag ? "*" : std::to_string(tag);
}

std::string Trace::to_string(
    const std::function<std::string(rank_t)>& label) const {
  const auto name = [&](rank_t r) { return rank_name(label, r); };
  std::ostringstream out;
  out << "decision trace (" << decisions.size() << " step(s), seed " << seed
      << ")";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out << "\n  #" << i << " " << name(d.rank) << " " << d.op << " <- "
        << name(d.chose) << " (context=" << d.context
        << ", tag=" << tag_name(d.tag) << ") candidates={";
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
