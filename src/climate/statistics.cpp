#include "src/climate/statistics.hpp"

#include <stdexcept>

namespace mph::climate {

double EnsembleStatistics::median_of(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(),
                        values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

EnsembleSnapshot EnsembleStatistics::aggregate(std::vector<double> samples) {
  if (static_cast<int>(samples.size()) != instances_) {
    throw std::invalid_argument(
        "expected " + std::to_string(instances_) + " samples, got " +
        std::to_string(samples.size()));
  }
  util::StatAccumulator acc;
  for (double s : samples) acc.add(s);
  EnsembleSnapshot snap;
  snap.mean = acc.mean();
  snap.variance = acc.variance();
  snap.min = acc.min();
  snap.max = acc.max();
  snap.median = median_of(std::move(samples));
  history_.push_back(snap);
  return snap;
}

std::vector<double> EnsembleStatistics::control_nudges(
    const std::vector<double>& samples, double mean, double gain) const {
  std::vector<double> nudges;
  nudges.reserve(samples.size());
  for (double s : samples) nudges.push_back(gain * (mean - s));
  return nudges;
}

}  // namespace mph::climate
