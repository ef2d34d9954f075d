#include "src/numerics/simplex_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace saba {
namespace {

// Projected gradient: iterations per restart, the objective improvement
// below which a restart stops, restarts (the best result wins), and the
// first trial step.
constexpr size_t kMaxIterations = 500;
constexpr double kTolerance = 1e-10;
constexpr size_t kRestarts = 6;
constexpr double kInitialStep = 0.25;

double Clamp(double x, double lo, double hi) { return std::min(std::max(x, lo), hi); }

double TotalObjective(const std::vector<ScalarObjective>& objectives,
                      const std::vector<double>& w) {
  double total = 0;
  for (size_t i = 0; i < objectives.size(); ++i) {
    total += objectives[i].value(w[i]);
  }
  return total;
}

}  // namespace

std::vector<double> ProjectToCapacitySimplex(const std::vector<double>& v,
                                             const SimplexConstraints& c) {
  const size_t n = v.size();
  assert(n > 0);
  assert(c.lower_bound <= c.upper_bound);
  assert(static_cast<double>(n) * c.lower_bound <= c.capacity + 1e-12);
  assert(static_cast<double>(n) * c.upper_bound >= c.capacity - 1e-12);

  // The projection has the form w_i = clamp(v_i - tau, lo, hi) where tau is
  // chosen so the weights sum to capacity. The sum is non-increasing in tau;
  // bisect over a bracket that certainly contains the root.
  double lo_tau = -c.upper_bound;
  double hi_tau = c.upper_bound;
  for (double x : v) {
    lo_tau = std::min(lo_tau, x - c.upper_bound);
    hi_tau = std::max(hi_tau, x - c.lower_bound);
  }
  auto sum_at = [&](double tau) {
    double s = 0;
    for (double x : v) {
      s += Clamp(x - tau, c.lower_bound, c.upper_bound);
    }
    return s;
  };
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo_tau + hi_tau);
    // Fixed-point early exit: once the midpoint lands on an endpoint the
    // update below is a no-op and every remaining iteration recomputes the
    // identical state, so breaking is bit-exact with running the full cap.
    if (sum_at(mid) > c.capacity) {
      if (lo_tau == mid) break;
      lo_tau = mid;
    } else {
      if (hi_tau == mid) break;
      hi_tau = mid;
    }
  }
  const double tau = 0.5 * (lo_tau + hi_tau);
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = Clamp(v[i] - tau, c.lower_bound, c.upper_bound);
  }
  // Compensate residual rounding by nudging an interior coordinate so the
  // equality constraint holds tightly.
  double s = 0;
  for (double x : w) {
    s += x;
  }
  double residual = c.capacity - s;
  for (size_t i = 0; i < n && std::fabs(residual) > 1e-12; ++i) {
    const double adjusted = Clamp(w[i] + residual, c.lower_bound, c.upper_bound);
    residual -= adjusted - w[i];
    w[i] = adjusted;
  }
  return w;
}

SimplexMinimizeResult MinimizeSeparableProjectedGradient(
    const std::vector<ScalarObjective>& objectives, const SimplexConstraints& constraints,
    Rng* rng) {
  const size_t n = objectives.size();
  assert(n > 0);
  assert(rng != nullptr);

  SimplexMinimizeResult best;
  best.objective = std::numeric_limits<double>::infinity();

  for (size_t restart = 0; restart < kRestarts; ++restart) {
    // Start point: equal split on the first restart, then random feasible
    // points (exponential draws normalized onto the simplex).
    std::vector<double> w(n, constraints.capacity / static_cast<double>(n));
    if (restart > 0) {
      double total = 0;
      for (size_t i = 0; i < n; ++i) {
        w[i] = rng->Exponential(1.0);
        total += w[i];
      }
      for (size_t i = 0; i < n; ++i) {
        w[i] = w[i] / total * constraints.capacity;
      }
      w = ProjectToCapacitySimplex(w, constraints);
    }

    double fw = TotalObjective(objectives, w);
    double step = kInitialStep;
    for (size_t it = 0; it < kMaxIterations; ++it) {
      std::vector<double> grad(n);
      for (size_t i = 0; i < n; ++i) {
        grad[i] = objectives[i].derivative(w[i]);
      }
      // Backtracking line search on the projected step.
      double gain = 0;  // Stays 0 when no step improves.
      double trial_step = step;
      for (int bt = 0; bt < 30; ++bt) {
        std::vector<double> cand(n);
        for (size_t i = 0; i < n; ++i) {
          cand[i] = w[i] - trial_step * grad[i];
        }
        cand = ProjectToCapacitySimplex(cand, constraints);
        const double fc = TotalObjective(objectives, cand);
        if (fc < fw - 1e-15) {
          gain = fw - fc;
          w = std::move(cand);
          fw = fc;
          step = trial_step * 1.5;  // Allow the step to grow again.
          break;
        }
        trial_step *= 0.5;
      }
      if (gain < kTolerance) {
        break;
      }
    }

    if (fw < best.objective) {
      best.weights = w;
      best.objective = fw;
    }
  }
  return best;
}

}  // namespace saba
