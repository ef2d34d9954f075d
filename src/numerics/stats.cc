#include "src/numerics/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace saba {

double GeometricMean(const std::vector<double>& xs) {
  assert(!xs.empty());
  double log_sum = 0;
  for (double x : xs) {
    assert(x > 0 && "geometric mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double Percentile(std::vector<double> xs, double p) {
  assert(!xs.empty());
  assert(p >= 0 && p <= 100);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) {
    return xs[0];
  }
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Min(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace saba
