#include "perfbench/src/churn.h"

#include <utility>

#include "src/core/solve_cache.h"
#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/net/units.h"
#include "src/numerics/polynomial.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

constexpr int kWorkloads = 64;
constexpr int kInstancesPerJob = 32;
constexpr int kFanout = 4;

// Exposes a fingerprint of everything the controller programmed (per-port
// SL tables, queue weights and solved per-app weights in ascending link
// order), as bench_fig11_scale does.
class DigestController : public saba::DistributedController {
 public:
  using DistributedController::DistributedController;

  uint64_t StateDigest(const saba::Network& network) const {
    uint64_t h = saba::kFnvOffsetBasis;
    const size_t num_links = network.topology().num_links();
    for (saba::LinkId link = 0; link < static_cast<saba::LinkId>(num_links); ++link) {
      const saba::PortConfig& port = network.port(link);
      h = saba::HashBytes(h, port.sl_to_queue.data(), port.sl_to_queue.size() * sizeof(int));
      h = saba::HashBytes(h, port.queue_weights.data(),
                          port.queue_weights.size() * sizeof(double));
      auto it = port_weights_.find(link);
      if (it == port_weights_.end()) {
        continue;
      }
      for (const auto& [app, weight] : it->second) {
        h = saba::HashBytes(h, &app, sizeof(app));
        h = saba::HashBytes(h, &weight, sizeof(weight));
      }
    }
    return h;
  }
};

// Random convex decreasing degree-3 polynomial in (1-b), as in fig12.
saba::SensitivityModel RandomModel(saba::Rng* rng) {
  const double s = rng->Uniform(0.1, 4.0);
  const double q = rng->Uniform(0.0, 3.0);
  const double c = rng->Uniform(0.0, 2.0);
  return saba::SensitivityModel{
      saba::Polynomial({1 + s + q + c, -(s + 2 * q + 3 * c), q + 3 * c, -c})};
}

ChurnJob MakeJob(saba::AppId app, const std::vector<saba::NodeId>& hosts, saba::Rng* rng) {
  ChurnJob job;
  job.app = app;
  job.workload = "w" + std::to_string(rng->UniformInt(0, kWorkloads - 1));
  std::vector<saba::NodeId> placement;
  placement.reserve(kInstancesPerJob);
  for (int i = 0; i < kInstancesPerJob; ++i) {
    placement.push_back(rng->Choice(hosts));
  }
  for (int i = 0; i < kInstancesPerJob; ++i) {
    for (int k = 1; k <= kFanout; ++k) {
      const saba::NodeId src = placement[static_cast<size_t>(i)];
      const saba::NodeId dst = placement[static_cast<size_t>((i + k) % kInstancesPerJob)];
      if (src != dst) {
        job.conns.push_back({src, dst, rng->Next()});
      }
    }
  }
  return job;
}

ChurnSchedule BuildSchedule(const std::vector<saba::NodeId>& hosts, size_t target_flows,
                            int num_events, uint64_t seed) {
  ChurnSchedule schedule;
  saba::Rng rng(seed);
  saba::AppId next_app = 1;
  while (schedule.concurrent_flows < target_flows) {
    schedule.ramp.push_back(MakeJob(next_app++, hosts, &rng));
    schedule.concurrent_flows += schedule.ramp.back().conns.size();
  }
  std::vector<ChurnJob> live = schedule.ramp;
  for (int e = 0; e < num_events; ++e) {
    const size_t pick =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    ChurnSchedule::Event event;
    event.departs = live[pick];
    event.arrives = MakeJob(next_app++, hosts, &rng);
    live[pick] = event.arrives;
    schedule.events.push_back(std::move(event));
  }
  return schedule;
}

void RunUniverseBody(const ChurnSetup& setup, bool traced, ChurnRun* run) {
  saba::EventScheduler scheduler;
  saba::Network network(setup.topology, /*default_queues=*/16);
  saba::WfqMaxMinAllocator allocator;
  // A live flow simulator coalesces each instant's deltas into one flush; no
  // flows ever exist.
  saba::FlowSimulator flow_sim(&scheduler, &network, &allocator);
  saba::DistributedControllerOptions options;
  options.base.seed = setup.controller_seed;
  options.num_shards = 1;
  options.shard_jobs = 1;
  DigestController controller(&network, &flow_sim, &setup.table, setup.database, options);

  ChurnTrace& trace = run->trace;
  // Every callback of a settle is queued at the current instant (zero
  // control-plane latency, and a flow-less simulator plans no completion), so
  // stepping until the queue drains and then advancing the clock is exactly
  // RunUntil(deadline).
  const auto settle = [&] {
    const saba::SimTime deadline = scheduler.Now() + 1e-9;
    if (!traced) {
      scheduler.RunUntil(deadline);
      return;
    }
    while (true) {
      const uint64_t reallocs = flow_sim.allocator_runs();
      const FlushMark flush = FlushMarkOf(&controller);
      const Clock::time_point a = Clock::now();
      if (!scheduler.Step()) {
        break;
      }
      const double dt = SecondsSince(a);
      if (FlushMarkOf(&controller) != flush) {
        trace.flush_s += dt;
      } else if (flow_sim.allocator_runs() != reallocs) {
        trace.realloc_s += dt;
        ++trace.realloc_steps;
      }
    }
    scheduler.RunUntil(deadline);
  };
  // Controller RPCs, timed only when tracing.
  const auto rpc = [&](const auto& call) {
    if (traced) {
      Span span(&trace.rpc_s);
      call();
    } else {
      call();
    }
  };
  const auto arrive = [&](const ChurnJob& job) {
    rpc([&] { controller.AppRegister(job.app, job.workload); });
    for (const ChurnConn& conn : job.conns) {
      rpc([&] { controller.ConnCreate(job.app, conn.src, conn.dst, conn.salt); });
    }
  };
  const auto depart = [&](const ChurnJob& job) {
    for (const ChurnConn& conn : job.conns) {
      rpc([&] { controller.ConnDestroy(job.app, conn.src, conn.dst, conn.salt); });
    }
    rpc([&] { controller.AppDeregister(job.app); });
  };

  const Clock::time_point ramp_start = Clock::now();
  for (const ChurnJob& job : setup.schedule.ramp) {
    arrive(job);
    settle();  // One coalesced flush per job arrival.
  }
  run->ramp_s = SecondsSince(ramp_start);

  run->event_ms.reserve(traced ? 0 : setup.schedule.events.size());
  for (const ChurnSchedule::Event& event : setup.schedule.events) {
    const Clock::time_point a = Clock::now();
    depart(event.departs);
    arrive(event.arrives);
    settle();  // Departure + arrival in one instant: exactly one flush.
    if (!traced) {
      run->event_ms.push_back(SecondsSince(a) * 1e3);
    }
  }

  run->digest = controller.StateDigest(network);
  run->port_reconfigurations = controller.stats().port_reconfigurations;
  run->flushes = controller.distributed_stats().flushes;
  run->ports_flushed = controller.distributed_stats().ports_flushed;
  run->conn_creates = controller.stats().conn_creates;
  run->eq2_hits = controller.stats().eq2_cache_hits;
  run->eq2_misses = controller.stats().eq2_cache_misses;
  run->events = scheduler.dispatched_count();
}

}  // namespace

ChurnSetup BuildChurnSetup(uint64_t seed, const ChurnConfig& config) {
  ChurnSetup setup;
  setup.topology = saba::BuildSpineLeaf({.num_spine = 54,
                                         .num_leaf = 102 * config.scale,
                                         .num_tor = 108 * config.scale,
                                         .hosts_per_tor = 18,
                                         .num_pods = 6 * config.scale,
                                         .host_link_bps = saba::Gbps64(56),
                                         .tor_leaf_bps = saba::Gbps64(56),
                                         .leaf_spine_bps = saba::Gbps64(56)});
  saba::Rng model_rng(saba::Rng::StreamSeed(seed, 1));
  for (int w = 0; w < kWorkloads; ++w) {
    saba::SensitivityEntry entry;
    entry.model = RandomModel(&model_rng);
    setup.table.Put("w" + std::to_string(w), entry);
  }
  setup.database =
      saba::MappingDatabase::Build(setup.table, /*num_pls=*/8, saba::Rng::StreamSeed(seed, 2));
  setup.schedule = BuildSchedule(setup.topology.Hosts(), config.target_flows, config.events,
                                 saba::Rng::StreamSeed(seed, 3));
  setup.controller_seed = saba::Rng::StreamSeed(seed, 4);
  return setup;
}

ChurnRun RunChurnUniverse(const ChurnSetup& setup, bool traced) {
  ChurnRun run;
  const Clock::time_point t0 = Clock::now();
  RunUniverseBody(setup, traced, &run);
  run.wall_s = SecondsSince(t0);
  {
    Digest d;
    for (const uint64_t v : {run.digest, run.port_reconfigurations, run.flushes,
                             run.ports_flushed, run.conn_creates}) {
      d.Add(v);
    }
    run.digest = d.value();
  }
  if (traced) {
    run.trace.wall_s = run.wall_s;
    std::vector<saba::RouteKey> keys;
    const auto add = [&keys](const ChurnJob& job) {
      for (const ChurnConn& conn : job.conns) {
        keys.push_back({conn.src, conn.dst, conn.salt});
      }
    };
    for (const ChurnJob& job : setup.schedule.ramp) {
      add(job);
    }
    for (const ChurnSchedule::Event& event : setup.schedule.events) {
      add(event.arrives);
    }
    run.trace.router = ReplayRoutes(setup.topology, keys);
  }
  return run;
}

}  // namespace perfbench
