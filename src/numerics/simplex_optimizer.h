// Separable minimization on a capacity simplex.
//
// Saba's controller solves, per switch output port (paper Eq 2):
//
//     min  sum_i D_i(w_i)   subject to   sum_i w_i = C_saba,  w_i >= w_min
//
// where each D_i is an application's polynomial sensitivity model. The paper
// uses NLopt's SLSQP; this module provides the general in-tree replacement,
// projected gradient (handles non-convex fits from noisy profiles): gradient
// descent with backtracking, re-projected onto the constraint set after every
// step, with multiple random restarts. The weight solver in src/core solves
// convex models of degree <= 3 in closed form and sends every other model
// here.

#ifndef SRC_NUMERICS_SIMPLEX_OPTIMIZER_H_
#define SRC_NUMERICS_SIMPLEX_OPTIMIZER_H_

#include <functional>
#include <vector>

#include "src/sim/rng.h"

namespace saba {

// A scalar function and its derivative.
struct ScalarObjective {
  std::function<double(double)> value;
  std::function<double(double)> derivative;
};

struct SimplexConstraints {
  // Total weight to distribute (C_saba; 1.0 == 100% of link capacity).
  double capacity = 1.0;
  // Per-component lower bound (>= 0; n * lower_bound must not exceed
  // capacity).
  double lower_bound = 0.0;
  // Per-component upper bound (defaults to the full capacity).
  double upper_bound = 1.0;
};

struct SimplexMinimizeResult {
  std::vector<double> weights;
  double objective = 0;
};

// Projects `v` onto {w : sum w = c.capacity, c.lower_bound <= w_i <=
// c.upper_bound} in Euclidean norm, via bisection on the shift multiplier.
// Requires a feasible constraint box (n*lo <= capacity <= n*hi).
std::vector<double> ProjectToCapacitySimplex(const std::vector<double>& v,
                                             const SimplexConstraints& c);

// General minimizer: projected gradient descent with backtracking line search
// and six restarts (an equal split, then random feasible points); the best
// result wins. Deterministic given the Rng seed.
SimplexMinimizeResult MinimizeSeparableProjectedGradient(
    const std::vector<ScalarObjective>& objectives, const SimplexConstraints& constraints,
    Rng* rng);

}  // namespace saba

#endif  // SRC_NUMERICS_SIMPLEX_OPTIMIZER_H_
