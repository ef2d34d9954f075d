// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// the WFQ fluid allocator (steady-state and incremental churn), the Eq-2
// weight solver, clustering, routing, and Sincronia's BSSI order. These back
// the performance claims in DESIGN.md (allocator cost linear-ish in flow
// count; closed-form solver microseconds per port).
//
// Besides the console output, the run writes a machine-readable summary to
// BENCH_micro.json (override the path with SABA_BENCH_JSON) so successive
// PRs can track the perf trajectory; see EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/sincronia_policy.h"
#include "src/core/controller.h"
#include "src/core/distributed_controller.h"
#include "src/core/pl_mapper.h"
#include "src/core/queue_mapper.h"
#include "src/core/weight_solver.h"
#include "src/exp/knobs.h"
#include "src/exp/sweep_runner.h"
#include "src/net/allocation_engine.h"
#include "src/net/allocator.h"
#include "src/net/routing.h"
#include "src/net/units.h"
#include "src/numerics/kmeans.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// --- WFQ allocator vs flow count on the big fabric ---------------------------

struct AllocatorFixture {
  AllocatorFixture(int num_flows, int num_apps)
      : network(BuildSpineLeaf(SpineLeafParams{}), 8) {
    Rng rng(7);
    const std::vector<NodeId> hosts = network.topology().Hosts();
    for (int f = 0; f < num_flows; ++f) {
      auto flow = std::make_unique<ActiveFlow>();
      flow->id = f;
      flow->app = static_cast<AppId>(f % num_apps);
      flow->sl = f % 8;
      flow->remaining_bits = Gigabytes(1);
      NodeId src = rng.Choice(hosts);
      NodeId dst = rng.Choice(hosts);
      while (dst == src) {
        dst = rng.Choice(hosts);
      }
      flow->path = &network.router().Route(src, dst, static_cast<uint64_t>(f));
      flows.push_back(std::move(flow));
      raw.push_back(flows.back().get());
    }
  }

  Network network;
  std::vector<std::unique_ptr<ActiveFlow>> flows;
  std::vector<ActiveFlow*> raw;
};

void BM_WfqAllocator(benchmark::State& state) {
  AllocatorFixture fixture(static_cast<int>(state.range(0)), 20);
  for (auto _ : state) {
    AllocateFromScratch(fixture.raw, fixture.network, AllocationDiscipline::kWfqSlQueues);
    benchmark::DoNotOptimize(fixture.raw[0]->rate);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WfqAllocator)->Arg(100)->Arg(1000)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_PerAppAllocator(benchmark::State& state) {
  AllocatorFixture fixture(static_cast<int>(state.range(0)), 20);
  for (auto _ : state) {
    AllocateFromScratch(fixture.raw, fixture.network, AllocationDiscipline::kPerAppQueues);
    benchmark::DoNotOptimize(fixture.raw[0]->rate);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PerAppAllocator)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_StrictPriorityAllocator(benchmark::State& state) {
  AllocatorFixture fixture(static_cast<int>(state.range(0)), 20);
  for (size_t i = 0; i < fixture.raw.size(); ++i) {
    fixture.raw[i]->priority = static_cast<int>(i % 8);
  }
  for (auto _ : state) {
    AllocateFromScratch(fixture.raw, fixture.network, AllocationDiscipline::kStrictPriority);
    benchmark::DoNotOptimize(fixture.raw[0]->rate);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrictPriorityAllocator)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

// --- Flow churn: incremental engine vs full rebuild --------------------------

// A large stable background with the locality real co-runs have: most flows
// are rack-local pairs (jobs place communicating workers on adjacent hosts),
// plus a few cross-ToR flows per pod that couple the pod's uplinks. The
// resulting link-sharing graph decomposes into many small components, which
// is exactly the structure the incremental engine exploits. The churn event
// is a single cross-ToR flow arriving and departing against that background —
// the dominant event shape at co-run scale.
struct ChurnFixture {
  // `flows_per_rack` scales the per-component solve cost without changing the
  // component structure: 8 matches the co-run-scale churn benches; larger
  // values give the multi-component batch bench components heavy enough for
  // fan-out to amortize its dispatch cost.
  explicit ChurnFixture(int flows_per_rack = 8) : network(BuildSpineLeaf(params), 8) {
    network.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.30));
    for (int sl = 0; sl < kNumServiceLevels; ++sl) {
      network.MapSlToQueueEverywhere(sl, sl % 8);
    }
    Rng rng(7);
    auto add = [&](NodeId src, NodeId dst, AppId app) {
      auto flow = std::make_unique<ActiveFlow>();
      flow->id = static_cast<FlowId>(flows.size() + 1);
      flow->app = app;
      flow->sl = static_cast<int>(flow->id % 8);
      flow->remaining_bits = Gigabytes(1);
      flow->path = &network.router().Route(src, dst, static_cast<uint64_t>(flow->id));
      raw.push_back(flow.get());
      flows.push_back(std::move(flow));
    };
    for (int t = 0; t < params.num_tor; ++t) {
      const NodeId base = t * params.hosts_per_tor;
      for (int i = 0; i < flows_per_rack; ++i) {
        if (i < params.hosts_per_tor - 1) {
          add(base + i, base + i + 1, static_cast<AppId>(t % 20));
        } else {
          // Past the chain, fan out from the rack's first host: the shared
          // egress ties the rack into one link-sharing component, growing its
          // solve cost without touching the default (chain-only) shape.
          add(base, base + 1 + (i % (params.hosts_per_tor - 1)), static_cast<AppId>(t % 20));
        }
      }
    }
    const int tors_per_pod = params.num_tor / params.num_pods;
    for (int p = 0; p < params.num_pods; ++p) {
      for (int j = 0; j < 6; ++j) {
        const int t0 = p * tors_per_pod + static_cast<int>(rng.UniformInt(0, tors_per_pod - 1));
        int t1 = p * tors_per_pod + static_cast<int>(rng.UniformInt(0, tors_per_pod - 1));
        while (t1 == t0) {
          t1 = p * tors_per_pod + static_cast<int>(rng.UniformInt(0, tors_per_pod - 1));
        }
        const NodeId src =
            t0 * params.hosts_per_tor + static_cast<NodeId>(rng.UniformInt(0, 7));
        const NodeId dst =
            t1 * params.hosts_per_tor + static_cast<NodeId>(rng.UniformInt(0, 7));
        add(src, dst, static_cast<AppId>(20 + p));
      }
    }
  }

  // The churn flow: cross-ToR inside pod 0, sharing its source host's egress
  // with a background flow so the dirty component is not a trivial island.
  ActiveFlow MakeChurnFlow() {
    ActiveFlow churn;
    churn.id = 1 << 20;
    churn.app = 99;
    churn.sl = 3;
    churn.remaining_bits = Gigabytes(1);
    churn.path = &network.router().Route(2, params.hosts_per_tor + 2, 0);
    return churn;
  }

  SpineLeafParams params{};
  Network network;
  std::vector<std::unique_ptr<ActiveFlow>> flows;
  std::vector<ActiveFlow*> raw;
};

void BM_ChurnIncremental(benchmark::State& state) {
  ChurnFixture fixture;
  AllocationEngine engine(&fixture.network, AllocationDiscipline::kWfqSlQueues);
  for (ActiveFlow* flow : fixture.raw) {
    engine.FlowAdded(flow);
  }
  engine.Recompute();
  ActiveFlow churn = fixture.MakeChurnFlow();
  for (auto _ : state) {
    engine.FlowAdded(&churn);
    engine.Recompute();
    engine.FlowRemoved(&churn);
    engine.Recompute();
    benchmark::DoNotOptimize(churn.rate);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // Two events per cycle.
  const AllocationEngineStats& stats = engine.stats();
  state.counters["flows_rerated_per_event"] = benchmark::Counter(
      static_cast<double>(stats.flows_rerated) / static_cast<double>(stats.recomputes));
}
BENCHMARK(BM_ChurnIncremental)->Unit(benchmark::kMicrosecond);

// The pre-engine cost model: every event re-solves the whole fabric from
// scratch (an arrival, then a departure).
void BM_ChurnFullRebuild(benchmark::State& state) {
  ChurnFixture fixture;
  ActiveFlow churn = fixture.MakeChurnFlow();
  std::vector<ActiveFlow*> with_churn = fixture.raw;
  with_churn.push_back(&churn);
  for (auto _ : state) {
    AllocateFromScratch(with_churn, fixture.network, AllocationDiscipline::kWfqSlQueues);
    AllocateFromScratch(fixture.raw, fixture.network, AllocationDiscipline::kWfqSlQueues);
    benchmark::DoNotOptimize(churn.rate);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ChurnFullRebuild)->Unit(benchmark::kMicrosecond);

// The full-recompute path: InvalidateAll makes every component dirty, so the
// following Recompute solves the whole fixture as one batch. The dense
// fixture (48 flows/rack) makes each rack one heavy component.
void BM_ComponentBatchSolve(benchmark::State& state) {
  ChurnFixture fixture(/*flows_per_rack=*/48);
  AllocationEngine engine(&fixture.network, AllocationDiscipline::kWfqSlQueues);
  for (ActiveFlow* flow : fixture.raw) {
    engine.FlowAdded(flow);
  }
  engine.Recompute();
  for (auto _ : state) {
    engine.InvalidateAll();
    engine.Recompute();
    benchmark::DoNotOptimize(fixture.raw[0]->rate);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["components_per_solve"] =
      benchmark::Counter(static_cast<double>(engine.stats().components_solved) /
                         static_cast<double>(engine.stats().recomputes));
}
BENCHMARK(BM_ComponentBatchSolve)->Unit(benchmark::kMicrosecond);

// --- Eq 2 weight solver vs application count ---------------------------------

void BM_WeightSolverConvex(benchmark::State& state) {
  Rng rng(11);
  std::vector<SensitivityModel> models;
  for (int64_t i = 0; i < state.range(0); ++i) {
    models.push_back(RandomConvexModel(3, &rng));
  }
  WeightSolver solver;
  Rng solve_rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(models, &solve_rng).objective);
  }
}
BENCHMARK(BM_WeightSolverConvex)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_WeightSolverProjectedGradient(benchmark::State& state) {
  // Degree-4 models leave the closed-form cubic path. These draws happen to
  // stay convex, so the solver lands in the generic convex bisection
  // (MinimizeConvexSeparable), not the projected gradient — the name is kept
  // for continuity of the perf trajectory; BM_WeightSolverNonConvex below
  // actually exercises the projected-gradient restarts.
  Rng rng(17);
  std::vector<SensitivityModel> models;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const SensitivityModel base = RandomConvexModel(3, &rng);
    std::vector<double> coeffs = base.polynomial().coefficients();
    coeffs.resize(5, 0.0);
    coeffs[4] = 0.01;
    models.push_back(SensitivityModel{Polynomial(coeffs)});
  }
  WeightSolver solver;
  Rng solve_rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(models, &solve_rng).objective);
  }
}
BENCHMARK(BM_WeightSolverProjectedGradient)->Arg(2)->Arg(8)->Arg(32);

void BM_WeightSolverNonConvex(benchmark::State& state) {
  // One non-convex quartic in the mix (negative curvature near w = 1) forces
  // the projected-gradient path with its random restarts.
  Rng rng(17);
  std::vector<SensitivityModel> models;
  models.push_back(SensitivityModel{Polynomial({2.0, -1.2, 0.3, -0.25, 0.05})});
  for (int64_t i = 1; i < state.range(0); ++i) {
    models.push_back(RandomConvexModel(3, &rng));
  }
  WeightSolver solver;
  Rng solve_rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(models, &solve_rng).objective);
  }
}
BENCHMARK(BM_WeightSolverNonConvex)->Arg(2)->Arg(8)->Arg(32);

// --- Clustering ---------------------------------------------------------------

void BM_PlMapping(benchmark::State& state) {
  Rng rng(23);
  std::vector<SensitivityModel> models;
  for (int64_t i = 0; i < state.range(0); ++i) {
    models.push_back(RandomConvexModel(3, &rng));
  }
  for (auto _ : state) {
    Rng cluster_rng(29);
    benchmark::DoNotOptimize(MapAppsToPls(models, 8, &cluster_rng).pl_models.size());
  }
}
BENCHMARK(BM_PlMapping)->Arg(16)->Arg(100)->Arg(1000);

void BM_QueueMapperPort(benchmark::State& state) {
  Rng rng(31);
  std::vector<SensitivityModel> pls;
  for (int i = 0; i < 16; ++i) {
    pls.push_back(RandomConvexModel(3, &rng));
  }
  QueueMapper mapper(pls);
  const std::vector<int> present = {0, 2, 3, 5, 7, 8, 11, 13, 14, 15};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.MapPort(present, static_cast<int>(state.range(0))).level);
  }
}
BENCHMARK(BM_QueueMapperPort)->Arg(2)->Arg(4)->Arg(8);

// --- Controller flush (signature-keyed solve cache, DESIGN.md §7.2) ----------

// A fig12-style scenario on a small spine-leaf fabric: 48 apps with distinct
// convex models, 32 instances each, fanout-4 ring connections. The scheduler
// never runs, so all controller work lands in the timed recompute.
struct ControllerFlushFixture {
  explicit ControllerFlushFixture(bool solve_cache)
      : network(BuildSpineLeaf({.num_spine = 2,
                                .num_leaf = 4,
                                .num_tor = 4,
                                .hosts_per_tor = 3,
                                .num_pods = 2,
                                .host_link_bps = Gbps64(10),
                                .tor_leaf_bps = Gbps64(10),
                                .leaf_spine_bps = Gbps64(10)}),
                /*default_queues=*/8),
        flow_sim(&scheduler, &network, &allocator) {
    Rng rng(7);
    constexpr int kApps = 48;
    std::vector<SensitivityModel> models;
    for (int a = 0; a < kApps; ++a) {
      models.push_back(RandomConvexModel(3, &rng));
      SensitivityEntry entry;
      entry.model = models.back();
      table.Put("app" + std::to_string(a), entry);
    }
    ControllerOptions options;
    options.solve_cache = solve_cache;
    controller.emplace(&network, &flow_sim, &table, options);
    Rng cluster_rng(11);
    const PlMapping mapping = MapAppsToPls(models, options.num_pls, &cluster_rng);
    controller->InstallPlModels(mapping.pl_models);
    const std::vector<NodeId> hosts = network.topology().Hosts();
    for (int a = 0; a < kApps; ++a) {
      controller->RegisterAppStatic(a, "app" + std::to_string(a), mapping.app_to_pl[a]);
      std::vector<NodeId> placement;
      for (int i = 0; i < 32; ++i) {
        placement.push_back(rng.Choice(hosts));
      }
      for (int i = 0; i < 32; ++i) {
        for (int k = 1; k <= 4; ++k) {
          const NodeId src = placement[static_cast<size_t>(i)];
          const NodeId dst = placement[static_cast<size_t>((i + k) % 32)];
          if (src != dst) {
            controller->ConnCreate(a, src, dst, static_cast<uint64_t>(a * 1000 + i * 8 + k));
          }
        }
      }
    }
  }

  EventScheduler scheduler;
  Network network;
  WfqMaxMinAllocator allocator;
  FlowSimulator flow_sim;
  SensitivityTable table;
  std::optional<CentralizedController> controller;
};

void ControllerFlushBench(benchmark::State& state, bool solve_cache) {
  ControllerFlushFixture fixture(solve_cache);
  const uint64_t before = fixture.controller->stats().port_reconfigurations;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.controller->RecomputeAllPortsTimed());
  }
  // Items = port reconfigurations, so items/s compares cache-on vs cache-off
  // flush throughput directly.
  state.SetItemsProcessed(
      static_cast<int64_t>(fixture.controller->stats().port_reconfigurations - before));
}

void BM_ControllerFlushCold(benchmark::State& state) { ControllerFlushBench(state, false); }
BENCHMARK(BM_ControllerFlushCold)->Unit(benchmark::kMicrosecond);

void BM_ControllerFlushCached(benchmark::State& state) { ControllerFlushBench(state, true); }
BENCHMARK(BM_ControllerFlushCached)->Unit(benchmark::kMicrosecond);

// --- Distributed sharded flush (DESIGN.md §7.3) ------------------------------

// The same fig12-style scenario on a mid-size fabric (96 hosts, 384 ports) so
// eight shards still carry dozens of ports each; num_shards == shard_jobs ==
// the bench argument. Programmed state and merged counters are bit-identical
// at every argument (tests/sharded_flush_test.cc); this curve tracks how
// flush latency scales with the shard count, so the /1 row is the serial
// baseline and /8 over /1 is the control-plane speedup on a multicore host.
struct DistributedFlushFixture {
  explicit DistributedFlushFixture(int shards)
      : network(BuildSpineLeaf({.num_spine = 4,
                                .num_leaf = 8,
                                .num_tor = 16,
                                .hosts_per_tor = 6,
                                .num_pods = 2,
                                .host_link_bps = Gbps64(10),
                                .tor_leaf_bps = Gbps64(10),
                                .leaf_spine_bps = Gbps64(10)}),
                /*default_queues=*/8),
        flow_sim(&scheduler, &network, &allocator) {
    Rng rng(7);
    constexpr int kApps = 48;
    for (int a = 0; a < kApps; ++a) {
      SensitivityEntry entry;
      entry.model = RandomConvexModel(3, &rng);
      table.Put("app" + std::to_string(a), entry);
    }
    ControllerOptions base;
    DistributedControllerOptions options;
    options.base = base;
    options.num_shards = shards;
    options.shard_jobs = shards;
    controller.emplace(&network, &flow_sim, &table, MappingDatabase::Build(table, base.num_pls, 11),
                       options);
    const std::vector<NodeId> hosts = network.topology().Hosts();
    for (int a = 0; a < kApps; ++a) {
      controller->AppRegister(a, "app" + std::to_string(a));
      std::vector<NodeId> placement;
      for (int i = 0; i < 32; ++i) {
        placement.push_back(rng.Choice(hosts));
      }
      for (int i = 0; i < 32; ++i) {
        for (int k = 1; k <= 4; ++k) {
          const NodeId src = placement[static_cast<size_t>(i)];
          const NodeId dst = placement[static_cast<size_t>((i + k) % 32)];
          if (src != dst) {
            controller->ConnCreate(a, src, dst, static_cast<uint64_t>(a * 1000 + i * 8 + k));
          }
        }
      }
    }
  }

  EventScheduler scheduler;
  Network network;
  WfqMaxMinAllocator allocator;
  FlowSimulator flow_sim;
  SensitivityTable table;
  std::optional<DistributedController> controller;
};

void BM_DistributedFlush(benchmark::State& state) {
  DistributedFlushFixture fixture(static_cast<int>(state.range(0)));
  const uint64_t before = fixture.controller->stats().port_reconfigurations;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.controller->RecomputeAllPortsTimed());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(fixture.controller->stats().port_reconfigurations - before));
}
// Real time, not CPU time: google-benchmark's CPU clock only meters the
// calling thread, which would credit the pooled flush for work it moved to
// workers. Wall time is what a controller flush latency curve means.
BENCHMARK(BM_DistributedFlush)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- Sweep engine --------------------------------------------------------------

// Per-task overhead of the deterministic sweep pool: trivial tasks, so the
// measured cost is claim + seed-split + collection, not work.
void BM_SweepRunnerOverhead(benchmark::State& state) {
  SweepRunner runner(static_cast<int>(state.range(0)));
  constexpr size_t kTasks = 1024;
  for (auto _ : state) {
    const std::vector<uint64_t> out = runner.Map<uint64_t>(
        kTasks, [](size_t i) { return Rng::StreamSeed(42, i); });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_SweepRunnerOverhead)->Arg(1)->Arg(2)->Arg(4);

// Scaling on compute-bound tasks shaped like the figure sweeps (independent
// seeded simulation cells): wall time should drop ~linearly in the argument
// up to the hardware thread count.
void BM_SweepRunnerScaling(benchmark::State& state) {
  SweepRunner runner(static_cast<int>(state.range(0)));
  constexpr size_t kTasks = 64;
  for (auto _ : state) {
    const std::vector<double> out = runner.MapSeeded<double>(
        kTasks, 42, [](size_t, Rng* rng) {
          double acc = 0;
          for (int i = 0; i < 50000; ++i) {
            acc += rng->Uniform01();
          }
          return acc;
        });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_SweepRunnerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Routing -------------------------------------------------------------------

void BM_RouterColdPath(benchmark::State& state) {
  const Topology topo = BuildSpineLeaf(SpineLeafParams{});
  Router router(&topo);
  Rng rng(37);
  const std::vector<NodeId> hosts = topo.Hosts();
  uint64_t salt = 0;
  for (auto _ : state) {
    // Fresh salt each time: exercises path computation, not the cache. Draw
    // src and dst independently from the full host set, deterministically
    // rejecting src == dst (the empty path would measure nothing).
    const NodeId src = rng.Choice(hosts);
    NodeId dst = rng.Choice(hosts);
    while (dst == src) {
      dst = rng.Choice(hosts);
    }
    benchmark::DoNotOptimize(router.Route(src, dst, ++salt));
  }
}
BENCHMARK(BM_RouterColdPath);

void BM_RouterCachedPath(benchmark::State& state) {
  const Topology topo = BuildSpineLeaf(SpineLeafParams{});
  Router router(&topo);
  router.Route(0, 1900, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Route(0, 1900, 5).size());
  }
}
BENCHMARK(BM_RouterCachedPath);

// A new Router per iteration routes host 0 to every other host of the default
// spine-leaf, so every distance table is built cold: this row times the
// reverse BFS work every new Network pays, which the warm rows above skip.
void BM_RouterFreshTables(benchmark::State& state) {
  const Topology topo = BuildSpineLeaf(SpineLeafParams{});
  const std::vector<NodeId> hosts = topo.Hosts();
  for (auto _ : state) {
    Router router(&topo);
    for (size_t i = 1; i < hosts.size(); ++i) {
      benchmark::DoNotOptimize(router.Route(hosts[0], hosts[i], 0).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(hosts.size() - 1));
}
BENCHMARK(BM_RouterFreshTables);

// --- Sincronia's BSSI order ----------------------------------------------------

// One BSSI order over a fig10-shaped input: 20 coflows of six flows each
// between random hosts of the default spine-leaf, 682 (coflow, port) entries
// over 672 ports, few of them shared. fig10 at 6 instances averages 9.1
// coflows and 731 entries over 710 ports (20 shared) per call, so the order's
// cost is mostly the per-position re-sum. Items are coflows ordered.
void BM_BssiOrder(benchmark::State& state) {
  constexpr int kCoflows = 20;
  constexpr int kFlowsPerCoflow = 6;
  const Topology topo = BuildSpineLeaf(SpineLeafParams{});
  Router router(&topo);
  Rng rng(41);
  const std::vector<NodeId> hosts = topo.Hosts();
  CoflowDemands demands;
  std::map<LinkId, uint32_t> port_of_link;
  for (AppId app = 0; app < kCoflows; ++app) {
    std::map<LinkId, double> demand;
    for (int f = 0; f < kFlowsPerCoflow; ++f) {
      const NodeId src = rng.Choice(hosts);
      NodeId dst = rng.Choice(hosts);
      while (dst == src) {
        dst = rng.Choice(hosts);
      }
      const double bits = Gigabytes(rng.Uniform(0.1, 2.0));
      for (const LinkId link : router.Route(src, dst, rng.Next())) {
        demand[link] += bits;
      }
    }
    demands.app.push_back(app);
    for (const auto& [link, bits] : demand) {
      const auto [it, inserted] = port_of_link.emplace(link, demands.link.size());
      if (inserted) {
        demands.link.push_back(link);
      }
      demands.entry_port.push_back(it->second);
      demands.entry_bits.push_back(bits);
    }
    demands.row_begin.push_back(static_cast<uint32_t>(demands.entry_bits.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBssiOrder(demands));
  }
  state.SetItemsProcessed(state.iterations() * kCoflows);
}
BENCHMARK(BM_BssiOrder);

// --- Machine-readable output ---------------------------------------------------

// Console reporter that also records every finished run so main() can dump a
// compact JSON summary (name, per-iteration time, items/sec) for the perf
// trajectory across PRs.
class RecordingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (!run.error_occurred) {
        recorded_.push_back(run);
      }
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::vector<Run>& recorded() const { return recorded_; }

 private:
  std::vector<Run> recorded_;
};

void WriteJsonSummary(const std::vector<benchmark::BenchmarkReporter::Run>& runs,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": 1,\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const double real_ns =
        run.iterations > 0 ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9
                           : 0.0;
    out << "    {\"name\": \"" << run.benchmark_name() << "\", \"iterations\": " << run.iterations
        << ", \"real_time_ns\": " << real_ns;
    const auto items = run.counters.find("items_per_second");
    if (items != run.counters.end()) {
      out << ", \"items_per_second\": " << items->second.value;
    }
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace saba

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  saba::RecordingConsoleReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  saba::WriteJsonSummary(reporter.recorded(),
                         saba::EnvString("SABA_BENCH_JSON", "BENCH_micro.json"));
  benchmark::Shutdown();
  return 0;
}
