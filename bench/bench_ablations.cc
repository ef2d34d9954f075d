// Design-choice ablations (beyond the paper's figures), backing the choices
// called out in DESIGN.md:
//   1. Eq-2 solver path: closed-form dual bisection vs projected gradient
//      (quality and cost on convex cubics, which both paths accept), and how
//      many profiled catalog models the closed form accepts.
//   2. The relative weight floor (WRR-granularity guarantee): how the skew
//      budget trades sensitive-job gains against insensitive-job damage.
//   3. The FECN congestion-inefficiency strength (gamma).
//   4. Completion-event quantization: accuracy vs reallocation count.

#include <algorithm>
#include <cassert>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/weight_solver.h"
#include "src/exp/cluster_setup.h"
#include "src/exp/corun.h"
#include "src/exp/report.h"
#include "src/net/units.h"
#include "src/numerics/simplex_optimizer.h"
#include "src/numerics/stats.h"
#include "src/sim/wallclock.h"

namespace saba {
namespace {

std::vector<JobSpec> StandardSetup(uint64_t seed) {
  Rng rng(seed);
  ClusterSetupOptions options;
  return GenerateClusterSetup(HiBenchCatalog(), options, &rng);
}

void SolverAblation(const SensitivityTable& table) {
  std::cout << "--- Ablation 1: Eq-2 solver path ---\n";
  const WeightSolver solver;
  const WeightSolverOptions& options = solver.options();
  // The solver's per-application floor at ten applications: the closed form
  // needs every model convex on [min_weight, capacity].
  constexpr size_t kApps = 10;
  const double min_weight = std::max(
      kMinWeight, options.relative_min_weight * options.capacity / static_cast<double>(kApps));
  size_t convex = 0;
  for (const auto& [name, entry] : table.entries()) {
    convex += entry.model.polynomial().IsConvexOn(min_weight, options.capacity) ? 1 : 0;
  }
  std::cout << "Profiled catalog models convex on [" << Fmt(min_weight, 3) << ", "
            << Fmt(options.capacity) << "]: " << convex << " of " << table.entries().size()
            << "\n(Eq 2 takes the closed form only when every model at the port is convex; "
               "both paths below solve ten of fig12's random convex cubics)\n";

  Rng rng(3);
  std::vector<SensitivityModel> models;
  models.reserve(kApps);
  for (size_t i = 0; i < kApps; ++i) {
    models.push_back(RandomConvexModel(3, &rng));
  }

  Stopwatch watch;
  WeightSolverResult dual;
  constexpr int kDualReps = 200;
  for (int i = 0; i < kDualReps; ++i) {
    dual = solver.Solve(models, &rng);
  }
  const double dual_us = watch.ElapsedSeconds() / kDualReps * 1e6;
  assert(dual.used_convex_path && "convex cubics must take the closed-form path");

  // The general path on the same problem, called directly: WeightSolver only
  // falls back to it when some model is not convex.
  std::vector<ScalarObjective> objectives;
  for (const SensitivityModel& model : models) {
    const Polynomial poly = model.polynomial();
    const Polynomial deriv = poly.Derivative();
    objectives.push_back(
        {[poly](double w) { return poly.Evaluate(w); },
         [deriv](double w) { return deriv.Evaluate(w); }});
  }
  SimplexConstraints constraints;
  constraints.capacity = options.capacity;
  constraints.lower_bound = min_weight;
  constraints.upper_bound = options.capacity;
  watch.Reset();
  SimplexMinimizeResult pg;
  constexpr int kPgReps = 20;
  for (int i = 0; i < kPgReps; ++i) {
    pg = MinimizeSeparableProjectedGradient(objectives, constraints, &rng);
  }
  const double pg_us = watch.ElapsedSeconds() / kPgReps * 1e6;

  TablePrinter out({"Path", "Objective (sum D_i)", "us/solve"});
  out.AddRow({"dual bisection (closed form)", Fmt(dual.objective, 4), Fmt(dual_us, 1)});
  out.AddRow({"projected gradient", Fmt(pg.objective, 4), Fmt(pg_us, 1)});
  out.Print(std::cout);
  std::cout << '\n';
}

void FloorAblation(const SensitivityTable& table, uint64_t seed) {
  std::cout << "--- Ablation 2: relative weight floor (skew budget) ---\n";
  const Topology topo = BuildSingleSwitchStar(32, Gbps64(56));
  const std::vector<JobSpec> jobs = StandardSetup(seed);
  const std::vector<double> floors = {0.25, 0.5, 0.75, 0.9, 1.0};

  // Task 0 is the shared baseline, tasks 1.. the floors.
  const std::vector<CoRunResult> runs =
      RunSweep<CoRunResult>("ablation floors", floors.size() + 1, [&](size_t t) {
        CoRunOptions options;
        if (t == 0) {
          options.policy = PolicyKind::kBaseline;
        } else {
          options.policy = PolicyKind::kSaba;
          options.table = &table;
          options.relative_min_weight = floors[t - 1];
          options.seed = seed;
        }
        return RunCoRun(topo, jobs, options);
      });

  TablePrinter out({"Floor", "Avg speedup", "Best job", "Worst job"});
  for (size_t f = 0; f < floors.size(); ++f) {
    const std::vector<double> speedups = Speedups(runs[0], runs[f + 1]);
    out.AddRow({Fmt(floors[f]), Fmt(GeometricMean(speedups)), Fmt(Max(speedups)),
                Fmt(Min(speedups))});
  }
  out.Print(std::cout);
  std::cout << "(floor 1.0 disables the sensitivity skew entirely; the default 0.75 is the "
               "calibrated operating point)\n\n";
}

void GammaAblation(const SensitivityTable& table, uint64_t seed) {
  std::cout << "--- Ablation 3: FECN inefficiency strength (gamma) ---\n";
  const Topology topo = BuildSingleSwitchStar(32, Gbps64(56));
  const std::vector<JobSpec> jobs = StandardSetup(seed);
  const std::vector<double> gammas = {0.0, 0.1, 0.25, 0.4};
  // Tasks are (gamma, policy) pairs: even = baseline, odd = Saba.
  const std::vector<CoRunResult> runs =
      RunSweep<CoRunResult>("ablation gammas", gammas.size() * 2, [&](size_t t) {
        const double gamma = gammas[t / 2];
        CoRunOptions options;
        options.fecn_gamma = gamma;
        if (t % 2 == 0) {
          options.policy = PolicyKind::kBaseline;
        } else {
          options.policy = PolicyKind::kSaba;
          options.table = &table;
          options.seed = seed;
        }
        return RunCoRun(topo, jobs, options);
      });
  TablePrinter out({"gamma", "Saba avg speedup over baseline"});
  for (size_t g = 0; g < gammas.size(); ++g) {
    out.AddRow({Fmt(gammas[g]), Fmt(GeometricMean(Speedups(runs[2 * g], runs[2 * g + 1])))});
  }
  out.Print(std::cout);
  std::cout << "(gamma 0 isolates the pure scheduling gain: Saba's win without any protocol-"
               "efficiency recovery)\n\n";
}

void QuantumAblation(uint64_t seed) {
  std::cout << "--- Ablation 4: completion-event quantization ---\n";
  const Topology topo = BuildSingleSwitchStar(32, Gbps64(56));
  const std::vector<JobSpec> jobs = StandardSetup(seed);

  // Task 0 is the exact (quantum 0) reference, tasks 1.. the grid sizes.
  const std::vector<double> quanta = {0.0, 0.1, 0.25, 1.0};
  const std::vector<CoRunResult> runs =
      RunSweep<CoRunResult>("ablation quanta", quanta.size() + 1, [&](size_t t) {
        CoRunOptions options;
        options.policy = PolicyKind::kBaseline;
        options.completion_quantum = t == 0 ? 0 : quanta[t - 1];
        return RunCoRun(topo, jobs, options);
      });
  const CoRunResult& exact = runs[0];

  TablePrinter out({"Quantum s", "Allocator runs", "Max completion error %"});
  for (size_t q = 0; q < quanta.size(); ++q) {
    const CoRunResult& result = runs[q + 1];
    double worst = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      worst = std::max(worst, std::fabs(result.completion_seconds[j] -
                                        exact.completion_seconds[j]) /
                                  exact.completion_seconds[j]);
    }
    out.AddRow({Fmt(quanta[q]), std::to_string(result.allocator_runs), Fmt(worst * 100, 2)});
  }
  out.Print(std::cout);
}

void PolicyComparison(const SensitivityTable& table, uint64_t seed) {
  std::cout << "--- Ablation 5: every policy on the standard 16-job setup ---\n";
  const Topology topo = BuildSingleSwitchStar(32, Gbps64(56));
  const std::vector<JobSpec> jobs = StandardSetup(seed);
  const std::vector<PolicyKind> policies = {
      PolicyKind::kBaseline,  PolicyKind::kSaba, PolicyKind::kSabaUnlimited,
      PolicyKind::kIdealMaxMin, PolicyKind::kHoma, PolicyKind::kPFabric,
      PolicyKind::kSincronia};
  const std::vector<CoRunResult> runs =
      RunSweep<CoRunResult>("ablation policies", policies.size(), [&](size_t p) {
        CoRunOptions options;
        options.policy = policies[p];
        if (policies[p] != PolicyKind::kBaseline) {
          options.table = &table;
          options.seed = seed;
        }
        return RunCoRun(topo, jobs, options);
      });
  TablePrinter out({"Policy", "Avg speedup over baseline"});
  for (size_t p = 1; p < policies.size(); ++p) {
    out.AddRow({PolicyName(policies[p]), Fmt(GeometricMean(Speedups(runs[0], runs[p])))});
  }
  out.Print(std::cout);
  std::cout << "(pFabric is a related-work addition beyond the paper's figures)\n";
}

void Run() {
  const uint64_t seed = EnvSeed();
  PrintBanner(std::cout, "Ablations",
              "Design-choice studies: solver path, weight floor, congestion model, event "
              "quantization, and a full policy comparison.",
              seed);
  const SensitivityTable table = ProfileCatalog(seed);
  SolverAblation(table);
  FloorAblation(table, seed);
  GammaAblation(table, seed);
  QuantumAblation(seed);
  PolicyComparison(table, seed);
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
