// K-means clustering (Lloyd's algorithm with k-means++ seeding).
//
// Saba groups applications by the coefficients of their sensitivity models to
// map hundreds of applications onto the network's limited priority levels
// (paper §5.3.1, citing MacQueen's K-means). Points are the coefficient
// vectors; the centroid of each group represents the group's sensitivity.

#ifndef SRC_NUMERICS_KMEANS_H_
#define SRC_NUMERICS_KMEANS_H_

#include <cstddef>
#include <vector>

#include "src/sim/rng.h"

namespace saba {

struct KMeansResult {
  // assignment[i] is the cluster index of points[i], in [0, k).
  std::vector<size_t> assignment;
  // centroids[c] is the mean of the points assigned to cluster c. Every
  // centroid has at least one assigned point.
  std::vector<std::vector<double>> centroids;
  // Sum over points of squared distance to their centroid (the k-means
  // objective at convergence).
  double inertia = 0;
};

// Clusters `points` (all the same dimension, at least one point) into
// min(k, points.size()) groups: four k-means++-seeded Lloyd runs of at most
// 100 iterations each, stopping once no centroid moves by more than 1e-5;
// the run with the lowest inertia wins. `rng` drives the seeding; with a
// fixed seed the result is deterministic.
KMeansResult KMeans(const std::vector<std::vector<double>>& points, size_t k, Rng* rng);

}  // namespace saba

#endif  // SRC_NUMERICS_KMEANS_H_
