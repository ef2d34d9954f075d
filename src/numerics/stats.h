// Descriptive statistics used by the experiment harness.
//
// The paper reports geometric-mean speedups ("the average speedup reports the
// geometric mean", §8.1), percentile latencies (Fig 12) and a CDF read off
// percentiles (Fig 8b).

#ifndef SRC_NUMERICS_STATS_H_
#define SRC_NUMERICS_STATS_H_

#include <vector>

namespace saba {

// Geometric mean. Requires all entries strictly positive.
double GeometricMean(const std::vector<double>& xs);

// The p-th percentile (p in [0, 100]) by linear interpolation between closest
// ranks. Requires a non-empty input; does not mutate it.
double Percentile(std::vector<double> xs, double p);

// Minimum / maximum; require non-empty inputs.
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

}  // namespace saba

#endif  // SRC_NUMERICS_STATS_H_
