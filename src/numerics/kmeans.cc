#include "src/numerics/kmeans.h"

#include <cassert>
#include <limits>

#include "src/numerics/linalg.h"

namespace saba {
namespace {

// Lloyd iterations per run, the convergence threshold on centroid movement
// (max over centroids of the squared displacement in one iteration), and the
// independent runs of which the lowest inertia wins.
constexpr size_t kMaxIterations = 100;
constexpr double kTolerance = 1e-10;
constexpr size_t kRestarts = 4;

// k-means++ seeding: first centroid uniform, subsequent centroids sampled
// proportionally to squared distance from the nearest already-chosen one.
std::vector<std::vector<double>> SeedPlusPlus(const std::vector<std::vector<double>>& points,
                                              size_t k, Rng* rng) {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(k);
  centroids.push_back(
      points[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(points.size()) - 1))]);
  std::vector<double> dist2(points.size(), std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    for (size_t i = 0; i < points.size(); ++i) {
      const double d = SquaredDistance(points[i], centroids.back());
      if (d < dist2[i]) {
        dist2[i] = d;
      }
    }
    double total = 0;
    for (double d : dist2) {
      total += d;
    }
    if (total <= 0) {
      // All points coincide with existing centroids; duplicate one.
      centroids.push_back(centroids.back());
      continue;
    }
    double x = rng->Uniform(0, total);
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      x -= dist2[i];
      if (x < 0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

KMeansResult LloydOnce(const std::vector<std::vector<double>>& points, size_t k, Rng* rng) {
  KMeansResult result;
  result.centroids = SeedPlusPlus(points, k, rng);
  result.assignment.assign(points.size(), 0);

  const size_t dim = points[0].size();
  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Assignment step.
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      size_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d = SquaredDistance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
    }

    // Update step.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const size_t c = result.assignment[i];
      ++counts[c];
      for (size_t j = 0; j < dim; ++j) {
        sums[c][j] += points[i][j];
      }
    }
    double max_move2 = 0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: reseed to the point farthest from its centroid so
        // every centroid always owns at least one point at convergence.
        double worst = -1;
        size_t worst_i = 0;
        for (size_t i = 0; i < points.size(); ++i) {
          const double d = SquaredDistance(points[i], result.centroids[result.assignment[i]]);
          if (d > worst) {
            worst = d;
            worst_i = i;
          }
        }
        result.centroids[c] = points[worst_i];
        result.assignment[worst_i] = c;
        max_move2 = std::numeric_limits<double>::infinity();
        continue;
      }
      std::vector<double> next(dim);
      for (size_t j = 0; j < dim; ++j) {
        next[j] = sums[c][j] / static_cast<double>(counts[c]);
      }
      const double move2 = SquaredDistance(next, result.centroids[c]);
      if (move2 > max_move2) {
        max_move2 = move2;
      }
      result.centroids[c] = std::move(next);
    }
    if (max_move2 <= kTolerance) {
      break;
    }
  }

  result.inertia = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    result.inertia += SquaredDistance(points[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace

KMeansResult KMeans(const std::vector<std::vector<double>>& points, size_t k, Rng* rng) {
  assert(!points.empty());
  assert(k >= 1);
  assert(rng != nullptr);
  k = std::min(k, points.size());

  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < kRestarts; ++r) {
    KMeansResult run = LloydOnce(points, k, rng);
    if (run.inertia < best.inertia) {
      best = std::move(run);
    }
  }
  return best;
}

}  // namespace saba
