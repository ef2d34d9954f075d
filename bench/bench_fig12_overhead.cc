// Figure 12: the overhead of a centralized controller — wall-clock time to
// compute the bandwidth shares of all applications for all switches.
//
// Methodology (§8.5): random scenarios with an active application set of
// size |A| in [1, 1000]; each application has 32 instances randomly placed
// on the 1,944-server fabric. The controller solves Eq 2 at every port that
// carries Saba connections; we report the calculation-time distribution for
// polynomial degrees k=1..3, bucketed into |A| <= 250 and 250 < |A| <= 1000.
//
// Paper (99th percentile): |A|<=250: 0.09 s / 0.16 s / 0.31 s for k=1/2/3;
// |A|<=1000: 0.43 s / 0.72 s / 1.13 s. Note: this implementation inverts
// the polynomial derivative in closed form (degree <= 3), so its absolute
// times are lower and flatter in k than NLopt's SLSQP; the |A| scaling is
// the reproduced quantity.
//
// SABA_SCENARIOS sets scenarios per degree (default 24; the paper uses
// 10,000 per degree). SABA_SOLVE_CACHE=0 disables the controller's
// signature-keyed solve cache (DESIGN.md §7.2) for A/B runs; the "state
// digest" lines printed per degree fingerprint the programmed switch state
// and must be byte-identical between cache-on and cache-off runs (the cache
// is an exactness-preserving memo) — scripts/check_repro.sh enforces this.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/controller.h"
#include "src/core/solve_cache.h"
#include "src/exp/report.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

// Exposes the static-registration path so scenario construction does not pay
// for per-registration K-means (the profiler performs the clustering offline
// in this experiment, as in §5.4).
class BenchController : public CentralizedController {
 public:
  using CentralizedController::CentralizedController;
  using CentralizedController::InstallPlModels;
  using CentralizedController::RegisterAppStatic;

  // FNV fingerprint of everything the controller programmed: per-port SL
  // tables, queue weights, and solved per-app weights, in ascending link
  // order. Pure function of the scenario (not of cache mode or job count).
  uint64_t StateDigest(const Network& network) const {
    uint64_t h = kFnvOffsetBasis;
    const size_t num_links = network.topology().num_links();
    for (LinkId link = 0; link < static_cast<LinkId>(num_links); ++link) {
      const PortConfig& port = network.port(link);
      h = HashBytes(h, port.sl_to_queue.data(), port.sl_to_queue.size() * sizeof(int));
      h = HashBytes(h, port.queue_weights.data(), port.queue_weights.size() * sizeof(double));
      auto it = port_weights_.find(link);
      if (it == port_weights_.end()) {
        continue;
      }
      for (const auto& [app, weight] : it->second) {
        // Field by field: pair<AppId, double> has padding bytes.
        h = HashBytes(h, &app, sizeof(app));
        h = HashBytes(h, &weight, sizeof(weight));
      }
    }
    return h;
  }
};

struct ScenarioResult {
  double seconds = 0;
  uint64_t digest = 0;
};

ScenarioResult RunScenario(const Topology& topo, int num_apps, size_t degree,
                           uint64_t scenario_seed, bool solve_cache) {
  Rng scenario_rng(scenario_seed);
  Rng* rng = &scenario_rng;
  EventScheduler scheduler;
  Network network(topo, /*default_queues=*/16);
  WfqMaxMinAllocator allocator;
  // A flow simulator defers port flushes; the scheduler is never run, so all
  // cost lands in the timed recompute below.
  FlowSimulator flow_sim(&scheduler, &network, &allocator);
  SensitivityTable table;  // Filled below with each app's drawn model.
  ControllerOptions options;
  options.num_pls = 8;
  options.solve_cache = solve_cache;
  options.seed = rng->Next();
  BenchController controller(&network, &flow_sim, &table, options);

  // Offline PL geometry over the scenario's models. Each app's model also
  // goes into the sensitivity table under its registration name: Eq 2 must
  // solve the scenario's degree-k polynomials, not a default model per app.
  std::vector<SensitivityModel> models;
  for (int a = 0; a < num_apps; ++a) {
    models.push_back(RandomConvexModel(degree, rng));
    SensitivityEntry entry;
    entry.model = models.back();
    table.Put("app" + std::to_string(a), entry);
  }
  Rng cluster_rng(rng->Next());
  const PlMapping mapping = MapAppsToPls(models, options.num_pls, &cluster_rng);
  controller.InstallPlModels(mapping.pl_models);

  const std::vector<NodeId> hosts = network.topology().Hosts();
  for (int a = 0; a < num_apps; ++a) {
    controller.RegisterAppStatic(a, "app" + std::to_string(a), mapping.app_to_pl[a]);
    // 32 instances, ring connections with fanout 4 (as in §8.5's scenarios).
    std::vector<NodeId> placement;
    for (int i = 0; i < 32; ++i) {
      placement.push_back(rng->Choice(hosts));
    }
    for (int i = 0; i < 32; ++i) {
      for (int k = 1; k <= 4; ++k) {
        const NodeId src = placement[static_cast<size_t>(i)];
        const NodeId dst = placement[static_cast<size_t>((i + k) % 32)];
        if (src != dst) {
          controller.ConnCreate(a, src, dst, static_cast<uint64_t>(a * 1000 + i * 8 + k));
        }
      }
    }
  }
  // The Fig 12 quantity: recompute Eq 2 + queue mapping for every active port.
  ScenarioResult result;
  result.seconds = controller.RecomputeAllPortsTimed();
  result.digest = controller.StateDigest(network);
  return result;
}

void Run() {
  const uint64_t seed = EnvSeed();
  const int scenarios = EnvInt("SABA_SCENARIOS", 24);
  const bool solve_cache = EnvInt("SABA_SOLVE_CACHE", 1) != 0;
  PrintBanner(std::cout, "Figure 12",
              "Centralized-controller calculation time over random scenarios (|A| in "
              "[1, 1000], 32 instances each, spine-leaf fabric); " +
                  std::to_string(scenarios) +
                  " scenarios per polynomial degree (SABA_SCENARIOS to change; paper uses "
                  "10,000).",
              seed);

  const Topology topo = BuildSpineLeaf(SpineLeafParams{});

  // Scenario parameters are drawn serially from one stream per degree; each
  // scenario then runs from its own split-off seed, so the construction cost
  // can fan across the sweep pool. Note that this bench measures wall-clock
  // solver time: run it with SABA_JOBS=1 when the absolute timing
  // distribution matters (parallel scenarios contend for cores and inflate
  // the tails; the |A| scaling shape survives either way).
  if (SweepRunner().jobs() > 1) {
    std::cerr << "[fig12] note: timings taken with SABA_JOBS>1; use SABA_JOBS=1 for a "
                 "contention-free timing distribution\n";
  }
  struct Scenario {
    size_t degree;
    int num_apps;
    uint64_t seed;
  };
  std::vector<Scenario> grid;
  for (size_t degree : {1u, 2u, 3u}) {
    Rng rng(seed + degree);
    for (int s = 0; s < scenarios; ++s) {
      // Log-uniform |A| so both buckets are populated.
      const int num_apps =
          static_cast<int>(std::exp(rng.Uniform(0.0, std::log(1000.0)))) + 1;
      grid.push_back({degree, num_apps, rng.Next()});
    }
  }
  const std::vector<ScenarioResult> results =
      RunSweep<ScenarioResult>("fig12 scenarios", grid.size(), [&](size_t g) {
        return RunScenario(topo, grid[g].num_apps, grid[g].degree, grid[g].seed, solve_cache);
      });

  TablePrinter table({"|A| bucket", "k", "p50 s", "p90 s", "p99/max s", "scenarios"});
  for (size_t degree : {1u, 2u, 3u}) {
    std::vector<double> small_bucket;
    std::vector<double> large_bucket;
    for (size_t g = 0; g < grid.size(); ++g) {
      if (grid[g].degree == degree) {
        (grid[g].num_apps <= 250 ? small_bucket : large_bucket).push_back(results[g].seconds);
      }
    }
    for (auto* bucket : {&small_bucket, &large_bucket}) {
      if (bucket->empty()) {
        continue;
      }
      table.AddRow({bucket == &small_bucket ? "|A| <= 250" : "250 < |A| <= 1000",
                    std::to_string(degree), Fmt(Percentile(*bucket, 50), 4),
                    Fmt(Percentile(*bucket, 90), 4), Fmt(Percentile(*bucket, 99), 4),
                    std::to_string(bucket->size())});
    }
  }
  table.Print(std::cout);
  std::cout << "(paper 99th: |A|<=250: 0.09/0.16/0.31 s; |A|<=1000: 0.43/0.72/1.13 s for "
               "k=1/2/3)\n";
  // Deterministic fingerprints of the programmed switch state, one per
  // degree (scenario digests combined in grid order). Invariant across
  // SABA_JOBS and SABA_SOLVE_CACHE — only the timing table above may move.
  for (size_t degree : {1u, 2u, 3u}) {
    uint64_t combined = kFnvOffsetBasis;
    for (size_t g = 0; g < grid.size(); ++g) {
      if (grid[g].degree == degree) {
        combined = HashBytes(combined, &results[g].digest, sizeof(results[g].digest));
      }
    }
    char line[64];
    std::snprintf(line, sizeof(line), "state digest k=%zu: %016llx", degree,
                  static_cast<unsigned long long>(combined));
    std::cout << line << '\n';
  }
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
