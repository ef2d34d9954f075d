// The controller's per-port weight calculation (paper Eq 2, §5.1, §7.2).
//
// Given the sensitivity models of the applications sending flows to a switch
// output port, find weights W = argmin sum_i D_i(w_i) subject to
// sum_i w_i = C_saba and w_i >= a per-application floor. The paper uses
// NLopt's SLSQP; this solver has two paths. When every model is convex on
// the feasible interval and of degree <= 3 (the profiler fits degree <= 3),
// it is exact: bisection on the multiplier lambda with a closed-form inverse
// of each D_i'. Every other model goes to multi-start projected gradient.

#ifndef SRC_CORE_WEIGHT_SOLVER_H_
#define SRC_CORE_WEIGHT_SOLVER_H_

#include <vector>

#include "src/core/sensitivity.h"
#include "src/sim/rng.h"

namespace saba {

// Absolute weight floor per application.
constexpr double kMinWeight = 0.01;

struct WeightSolverOptions {
  // C_saba: fraction of link capacity managed by Saba (1.0 in all the
  // paper's experiments).
  double capacity = 1.0;
  // Relative floor: every application is guaranteed at least
  // relative_min_weight * capacity / n. This models the weight granularity
  // of real WRR arbitration tables (InfiniBand VL weights are small
  // integers, bounding how skewed a port schedule can be) and is what keeps
  // Saba's worst-case per-job damage at the few-percent level the paper
  // reports (Fig 8a: Sort -5%, PR -1%) instead of starving flat-curve jobs.
  double relative_min_weight = 0.75;
};

struct WeightSolverResult {
  std::vector<double> weights;  // Same order as the input models; sums to capacity.
  double objective = 0;         // sum_i D_i(w_i) at the solution.
  bool used_convex_path = false;
};

class WeightSolver {
 public:
  explicit WeightSolver(WeightSolverOptions options = {});

  // Solves Eq 2 for the given applications. `rng` seeds the projected-
  // gradient restarts (deterministic given the seed); it is unused on the
  // convex path. Requires at least one model.
  WeightSolverResult Solve(const std::vector<SensitivityModel>& models, Rng* rng) const;

  const WeightSolverOptions& options() const { return options_; }

 private:
  WeightSolverOptions options_;
};

}  // namespace saba

#endif  // SRC_CORE_WEIGHT_SOLVER_H_
