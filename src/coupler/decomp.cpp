#include "src/coupler/decomp.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mph::coupler {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("Decomp: " + what);
}
}  // namespace

Decomp Decomp::block(std::int64_t global_size, int nranks) {
  if (global_size < 0) fail("negative global size");
  if (nranks <= 0) fail("nranks must be positive");
  Decomp d;
  d.global_size_ = global_size;
  d.per_rank_.resize(static_cast<std::size_t>(nranks));
  const std::int64_t base = global_size / nranks;
  const std::int64_t extra = global_size % nranks;
  std::int64_t start = 0;
  for (int r = 0; r < nranks; ++r) {
    const std::int64_t len = base + (r < extra ? 1 : 0);
    if (len > 0) {
      d.per_rank_[static_cast<std::size_t>(r)].push_back(Segment{start, len});
    }
    start += len;
  }
  return d;
}

Decomp Decomp::cyclic(std::int64_t global_size, int nranks,
                      std::int64_t chunk) {
  if (global_size < 0) fail("negative global size");
  if (nranks <= 0) fail("nranks must be positive");
  if (chunk <= 0) fail("chunk must be positive");
  Decomp d;
  d.global_size_ = global_size;
  d.per_rank_.resize(static_cast<std::size_t>(nranks));
  std::int64_t start = 0;
  int r = 0;
  while (start < global_size) {
    const std::int64_t len = std::min(chunk, global_size - start);
    d.per_rank_[static_cast<std::size_t>(r)].push_back(Segment{start, len});
    start += len;
    r = (r + 1) % nranks;
  }
  return d;
}

Decomp Decomp::weighted(std::int64_t global_size,
                        std::span<const double> weights) {
  if (global_size < 0) fail("negative global size");
  if (weights.empty()) fail("at least one weight required");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) fail("negative weight");
    total += w;
  }
  if (total <= 0.0) fail("at least one weight must be positive");

  const int nranks = static_cast<int>(weights.size());
  // Largest-remainder apportionment of global_size indices.
  std::vector<std::int64_t> counts(weights.size());
  std::vector<std::pair<double, int>> remainders;  // (-fraction, rank)
  std::int64_t assigned = 0;
  for (int r = 0; r < nranks; ++r) {
    const double share = static_cast<double>(global_size) *
                         weights[static_cast<std::size_t>(r)] / total;
    counts[static_cast<std::size_t>(r)] = static_cast<std::int64_t>(share);
    assigned += counts[static_cast<std::size_t>(r)];
    remainders.emplace_back(-(share - static_cast<double>(
                                          counts[static_cast<std::size_t>(r)])),
                            r);
  }
  // Ties break toward the lower rank: sort is on (-fraction, rank).
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t i = 0; assigned < global_size; ++i) {
    const int rank = remainders[i % remainders.size()].second;
    ++counts[static_cast<std::size_t>(rank)];
    ++assigned;
  }

  Decomp d;
  d.global_size_ = global_size;
  d.per_rank_.resize(weights.size());
  std::int64_t start = 0;
  for (int r = 0; r < nranks; ++r) {
    const std::int64_t len = counts[static_cast<std::size_t>(r)];
    if (len > 0) {
      d.per_rank_[static_cast<std::size_t>(r)].push_back(Segment{start, len});
    }
    start += len;
  }
  return d;
}

Decomp Decomp::from_segments(std::int64_t global_size,
                             std::vector<std::vector<Segment>> per_rank) {
  if (global_size < 0) fail("negative global size");
  if (per_rank.empty()) fail("at least one rank required");
  // Validate: all segments positive, within bounds, sorted per rank, and
  // the union covers [0, global_size) exactly once.
  std::vector<Segment> all;
  for (const auto& segs : per_rank) {
    std::int64_t prev_end = -1;
    for (const Segment& s : segs) {
      if (s.length <= 0) fail("segment with non-positive length");
      if (s.gstart < 0 || s.gend() > global_size) {
        fail("segment outside [0, global_size)");
      }
      if (s.gstart < prev_end) fail("per-rank segments must be sorted");
      prev_end = s.gend();
      all.push_back(s);
    }
  }
  std::sort(all.begin(), all.end(), [](const Segment& a, const Segment& b) {
    return a.gstart < b.gstart;
  });
  std::int64_t cursor = 0;
  for (const Segment& s : all) {
    if (s.gstart != cursor) {
      fail(s.gstart < cursor ? "overlapping segments"
                             : "gap in coverage at index " +
                                   std::to_string(cursor));
    }
    cursor = s.gend();
  }
  if (cursor != global_size) fail("coverage ends before global_size");

  Decomp d;
  d.global_size_ = global_size;
  d.per_rank_ = std::move(per_rank);
  return d;
}

const std::vector<Segment>& Decomp::segments(int rank) const {
  if (rank < 0 || rank >= nranks()) fail("rank out of range");
  return per_rank_[static_cast<std::size_t>(rank)];
}

std::int64_t Decomp::local_size(int rank) const {
  std::int64_t total = 0;
  for (const Segment& s : segments(rank)) total += s.length;
  return total;
}

int Decomp::owner_of(std::int64_t gidx) const {
  if (gidx < 0 || gidx >= global_size_) fail("global index out of range");
  for (int r = 0; r < nranks(); ++r) {
    for (const Segment& s : per_rank_[static_cast<std::size_t>(r)]) {
      if (gidx >= s.gstart && gidx < s.gend()) return r;
    }
  }
  fail("index not covered (corrupt decomposition)");
}

std::int64_t Decomp::to_global(int rank, std::int64_t lidx) const {
  std::int64_t remaining = lidx;
  for (const Segment& s : segments(rank)) {
    if (remaining < s.length) return s.gstart + remaining;
    remaining -= s.length;
  }
  fail("local index " + std::to_string(lidx) + " out of range on rank " +
       std::to_string(rank));
}

std::int64_t Decomp::to_local(int rank, std::int64_t gidx) const {
  std::int64_t offset = 0;
  for (const Segment& s : segments(rank)) {
    if (gidx >= s.gstart && gidx < s.gend()) return offset + (gidx - s.gstart);
    offset += s.length;
  }
  return -1;
}

}  // namespace mph::coupler
