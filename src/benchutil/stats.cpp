#include "benchutil/stats.hpp"

#include <algorithm>
#include <cmath>

namespace gpa::benchutil {

Stats compute_stats(std::vector<double> samples) {
  Stats s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  const std::size_t mid = samples.size() / 2;
  s.median = samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
  double sum = 0.0;
  for (const double x : samples) sum += x;
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (const double x : samples) var += (x - s.mean) * (x - s.mean);
  s.stddev = samples.size() > 1 ? std::sqrt(var / static_cast<double>(samples.size() - 1)) : 0.0;
  return s;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = pct < 0.0 ? 0.0 : (pct > 100.0 ? 100.0 : pct);
  const double rank = clamped / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

}  // namespace gpa::benchutil
