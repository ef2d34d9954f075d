#include "src/core/weight_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "src/numerics/simplex_optimizer.h"

namespace saba {
namespace {

// For a convex polynomial of degree <= 3, the derivative is at most
// quadratic, so (D')^{-1}(lambda) on [lo, hi] has a closed form. This is the
// hot path of the controller: Eq 2 is solved at every affected port on every
// connection change, and the paper's models are all degree <= 3.
double InverseDerivative(const Polynomial& deriv, double lambda, double lo, double hi) {
  if (deriv.Evaluate(lo) >= lambda) {
    return lo;
  }
  if (deriv.Evaluate(hi) <= lambda) {
    return hi;
  }
  const double d0 = deriv.coefficient(0);
  const double d1 = deriv.coefficient(1);
  const double d2 = deriv.coefficient(2);
  constexpr double kTiny = 1e-14;
  if (std::fabs(d2) < kTiny) {
    if (std::fabs(d1) < kTiny) {
      return lo;  // Flat derivative; boundary checks above already decided.
    }
    return std::clamp((lambda - d0) / d1, lo, hi);
  }
  const double disc = d1 * d1 - 4.0 * d2 * (d0 - lambda);
  if (disc < 0) {
    return lo;  // Numerically impossible given the boundary checks.
  }
  const double sq = std::sqrt(disc);
  const double r1 = (-d1 - sq) / (2.0 * d2);
  const double r2 = (-d1 + sq) / (2.0 * d2);
  constexpr double kSlack = 1e-9;
  // Prefer the root on the increasing branch of the derivative (convexity).
  for (double r : {r1, r2}) {
    if (r >= lo - kSlack && r <= hi + kSlack && 2.0 * d2 * r + d1 >= -kSlack) {
      return std::clamp(r, lo, hi);
    }
  }
  for (double r : {r1, r2}) {
    if (r >= lo - kSlack && r <= hi + kSlack) {
      return std::clamp(r, lo, hi);
    }
  }
  return lo;
}

// Exact dual bisection for convex degree-<=3 models: find lambda with
// sum_i clamp((D_i')^{-1}(lambda), lo, hi) == capacity.
std::vector<double> SolveConvexCubicDual(const std::vector<Polynomial>& derivs, double capacity,
                                         double lo, double hi) {
  double lambda_lo = std::numeric_limits<double>::infinity();
  double lambda_hi = -std::numeric_limits<double>::infinity();
  for (const Polynomial& d : derivs) {
    lambda_lo = std::min(lambda_lo, std::min(d.Evaluate(lo), d.Evaluate(hi)));
    lambda_hi = std::max(lambda_hi, std::max(d.Evaluate(lo), d.Evaluate(hi)));
  }
  lambda_lo -= 1.0;
  lambda_hi += 1.0;
  for (int it = 0; it < 100; ++it) {
    const double lambda = 0.5 * (lambda_lo + lambda_hi);
    double total = 0;
    for (const Polynomial& d : derivs) {
      total += InverseDerivative(d, lambda, lo, hi);
    }
    // Fixed-point early exit (bit-exact): once the midpoint equals an
    // endpoint, the remaining iterations cannot move the bracket.
    if (total < capacity) {
      if (lambda_lo == lambda) break;
      lambda_lo = lambda;
    } else {
      if (lambda_hi == lambda) break;
      lambda_hi = lambda;
    }
  }
  // The optimum may sit on a jump of the (piecewise) inverse: models with a
  // locally constant derivative switch from lo to hi discontinuously (linear
  // sensitivity models do this). Take the allocations just below and above
  // the final multiplier and distribute the residual capacity across the
  // jumping coordinates in proportion to their jump — exact for linear
  // models, a no-op when the inverse is continuous.
  std::vector<double> w_low(derivs.size());
  std::vector<double> w_high(derivs.size());
  double sum_low = 0;
  double sum_high = 0;
  for (size_t i = 0; i < derivs.size(); ++i) {
    w_low[i] = InverseDerivative(derivs[i], lambda_lo, lo, hi);
    w_high[i] = InverseDerivative(derivs[i], lambda_hi, lo, hi);
    sum_low += w_low[i];
    sum_high += w_high[i];
  }
  const double gap_total = sum_high - sum_low;
  const double deficit = capacity - sum_low;
  std::vector<double> w(derivs.size());
  for (size_t i = 0; i < derivs.size(); ++i) {
    const double gap = w_high[i] - w_low[i];
    w[i] = gap_total > 1e-15 ? w_low[i] + deficit * gap / gap_total : w_low[i];
  }
  return w;
}

}  // namespace

WeightSolver::WeightSolver(WeightSolverOptions options) : options_(options) {
  assert(options_.capacity > 0);
}

WeightSolverResult WeightSolver::Solve(const std::vector<SensitivityModel>& models,
                                       Rng* rng) const {
  assert(!models.empty());
  const size_t n = models.size();
  WeightSolverResult result;

  if (n == 1) {
    result.weights = {options_.capacity};
    result.objective = models[0].SlowdownAt(options_.capacity);
    result.used_convex_path = true;
    return result;
  }

  // The per-application floor: the absolute minimum, raised by the relative
  // (WRR-granularity) guarantee, kept feasible.
  double min_weight = std::max(
      kMinWeight, options_.relative_min_weight * options_.capacity / static_cast<double>(n));
  if (min_weight * static_cast<double>(n) > options_.capacity) {
    min_weight = options_.capacity / static_cast<double>(n);
  }

  SimplexConstraints constraints;
  constraints.capacity = options_.capacity;
  constraints.lower_bound = min_weight;
  constraints.upper_bound = options_.capacity;

  bool closed_form = true;
  std::vector<Polynomial> derivs;
  derivs.reserve(n);
  for (const SensitivityModel& model : models) {
    const Polynomial& poly = model.polynomial();
    closed_form = closed_form && poly.degree() <= 3 &&
                  poly.IsConvexOn(min_weight, options_.capacity);
    derivs.push_back(poly.Derivative());
  }

  if (closed_form) {
    // Hot path: closed-form derivative inversion + dual bisection.
    std::vector<double> w =
        SolveConvexCubicDual(derivs, options_.capacity, min_weight, options_.capacity);
    result.weights = ProjectToCapacitySimplex(w, constraints);
    result.objective = 0;
    for (size_t i = 0; i < n; ++i) {
      result.objective += models[i].polynomial().Evaluate(result.weights[i]);
    }
    result.used_convex_path = true;
    return result;
  }

  std::vector<ScalarObjective> objectives;
  objectives.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Polynomial poly = models[i].polynomial();
    const Polynomial deriv = derivs[i];
    objectives.push_back(
        {[poly](double w) { return poly.Evaluate(w); },
         [deriv](double w) { return deriv.Evaluate(w); }});
  }

  SimplexMinimizeResult sol = MinimizeSeparableProjectedGradient(objectives, constraints, rng);
  result.weights = std::move(sol.weights);
  result.objective = sol.objective;
  return result;
}

}  // namespace saba
