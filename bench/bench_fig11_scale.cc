// Fig 11-style controller scale-out: flush latency of the sharded
// distributed control plane (DESIGN.md §7.3) on a 5x spine-leaf fabric —
// 9,720 servers at the default SABA_FIG11_SCALE=5 — under flow-arrival-driven
// steady-state churn.
//
// Jobs of 32 instances with fanout-4 ring connections arrive until the
// target concurrent-flow count is reached; steady state then replaces one
// job per event (departure + arrival in the same simulated instant, so each
// event costs exactly one coalesced flush). The churn-flush wall-time
// distribution per shard count is the figure: each shard worker owns a
// disjoint port set with its own Eq-2 solve cache, so the curve shows how
// the control plane's reconfiguration latency scales out.
//
// SABA_SHARDS picks one shard count; unset or 0 sweeps {1, 2, 4, 8}.
// Timings go to stderr. stdout carries only the banner and the programmed
// state's digest + invariant counters, which are bit-identical at every
// shard count (tests/sharded_flush_test.cc proves the contract;
// scripts/check_repro.sh diffs this binary's stdout at SABA_SHARDS=1 vs 8).
// Run on an idle multicore host when the latency curve matters; on a single
// core the sweep still verifies the invariants but every shard count costs
// the same wall time.
//
// Scale knobs: SABA_FIG11_SCALE (fabric multiplier; 5 is the ~10k-server
// paper scale), SABA_FIG11_SCALE_FLOWS (target concurrent flows; ~1M
// reproduces the paper-scale churn, the default is a laptop-friendly 200k),
// SABA_FIG11_SCALE_EVENTS (steady-state events per shard count). The
// EXPERIMENTS.md recipe table lists the reproduction settings.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/distributed_controller.h"
#include "src/exp/report.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

struct ConnSpec {
  NodeId src;
  NodeId dst;
  uint64_t salt;
};

struct JobSpec {
  AppId app = 0;
  std::string workload;
  std::vector<ConnSpec> conns;
};

constexpr int kInstancesPerJob = 32;
constexpr int kFanout = 4;

JobSpec MakeJob(AppId app, int num_workloads, const std::vector<NodeId>& hosts, Rng* rng) {
  JobSpec job;
  job.app = app;
  job.workload = "w" + std::to_string(rng->UniformInt(0, num_workloads - 1));
  std::vector<NodeId> placement;
  placement.reserve(kInstancesPerJob);
  for (int i = 0; i < kInstancesPerJob; ++i) {
    placement.push_back(rng->Choice(hosts));
  }
  for (int i = 0; i < kInstancesPerJob; ++i) {
    for (int k = 1; k <= kFanout; ++k) {
      const NodeId src = placement[static_cast<size_t>(i)];
      const NodeId dst = placement[static_cast<size_t>((i + k) % kInstancesPerJob)];
      if (src != dst) {
        job.conns.push_back({src, dst, rng->Next()});
      }
    }
  }
  return job;
}

// The full churn script, generated once and replayed verbatim for every
// shard count so all universes consume byte-identical delta streams.
struct Schedule {
  std::vector<JobSpec> ramp;
  struct Event {
    JobSpec departs;  // Copy of the replaced job (its conns must be torn down).
    JobSpec arrives;
  };
  std::vector<Event> events;
  size_t concurrent_flows = 0;  // Live connection count at steady state.
};

Schedule BuildSchedule(const std::vector<NodeId>& hosts, int num_workloads, size_t target_flows,
                       int num_events, uint64_t seed) {
  Schedule schedule;
  Rng rng(seed);
  AppId next_app = 1;
  while (schedule.concurrent_flows < target_flows) {
    schedule.ramp.push_back(MakeJob(next_app++, num_workloads, hosts, &rng));
    schedule.concurrent_flows += schedule.ramp.back().conns.size();
  }
  // Steady state: each event swaps one live job for a fresh one, keeping the
  // concurrent-flow count (nearly) constant.
  std::vector<JobSpec> live = schedule.ramp;
  for (int e = 0; e < num_events; ++e) {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    Schedule::Event event;
    event.departs = live[pick];
    event.arrives = MakeJob(next_app++, num_workloads, hosts, &rng);
    live[pick] = event.arrives;
    schedule.events.push_back(std::move(event));
  }
  return schedule;
}

struct UniverseResult {
  uint64_t digest = 0;
  uint64_t port_reconfigurations = 0;
  uint64_t flushes = 0;
  uint64_t ports_flushed = 0;
  uint64_t conn_creates = 0;
  std::vector<double> churn_flush_seconds;
};

UniverseResult RunUniverse(const Topology& topo, const SensitivityTable& table,
                           const MappingDatabase& database, const Schedule& schedule, int shards,
                           uint64_t controller_seed) {
  EventScheduler scheduler;
  Network network(topo, /*default_queues=*/16);
  WfqMaxMinAllocator allocator;
  // A live flow simulator coalesces each instant's deltas into one flush;
  // the scheduler only ever runs the flush callbacks (no flows exist).
  FlowSimulator flow_sim(&scheduler, &network, &allocator);
  DistributedControllerOptions options;
  options.base.seed = controller_seed;
  options.num_shards = shards;
  options.shard_jobs = shards;
  DistributedController controller(&network, &flow_sim, &table, database, options);

  const auto settle = [&] { scheduler.RunUntil(scheduler.Now() + 1e-9); };
  const auto arrive = [&](const JobSpec& job) {
    controller.AppRegister(job.app, job.workload);
    for (const ConnSpec& conn : job.conns) {
      controller.ConnCreate(job.app, conn.src, conn.dst, conn.salt);
    }
  };

  for (const JobSpec& job : schedule.ramp) {
    arrive(job);
    settle();  // One coalesced flush per job arrival.
  }

  UniverseResult result;
  result.churn_flush_seconds.reserve(schedule.events.size());
  for (const Schedule::Event& event : schedule.events) {
    for (const ConnSpec& conn : event.departs.conns) {
      controller.ConnDestroy(event.departs.app, conn.src, conn.dst, conn.salt);
    }
    controller.AppDeregister(event.departs.app);
    arrive(event.arrives);
    settle();  // Departure + arrival in one instant: exactly one flush.
    result.churn_flush_seconds.push_back(controller.stats().last_calc_wall_seconds);
  }

  result.digest = controller.StateDigest();
  result.port_reconfigurations = controller.stats().port_reconfigurations;
  result.flushes = controller.distributed_stats().flushes;
  result.ports_flushed = controller.distributed_stats().ports_flushed;
  result.conn_creates = controller.stats().conn_creates;
  return result;
}

void Run() {
  const uint64_t seed = EnvSeed();
  const int scale = EnvInt("SABA_FIG11_SCALE", 5);
  const int target_flows = EnvInt("SABA_FIG11_SCALE_FLOWS", 200000);
  const int num_events = EnvInt("SABA_FIG11_SCALE_EVENTS", 120);
  const int shards_knob = EnvShards();
  if (scale < 1 || target_flows < 1 || num_events < 1) {
    std::cerr << "fatal: SABA_FIG11_SCALE, SABA_FIG11_SCALE_FLOWS and "
                 "SABA_FIG11_SCALE_EVENTS must be >= 1\n";
    std::exit(2);
  }

  PrintBanner(std::cout, "Figure 11 at scale",
              "Sharded distributed-controller flush under steady-state churn on a " +
                  std::to_string(scale) +
                  "x spine-leaf fabric; jobs of 32 instances with fanout-4 rings, one "
                  "job replaced per event. Latency distributions per shard count go to "
                  "stderr; stdout is shard-count-invariant by the DESIGN.md §7.3 "
                  "contract.",
              seed);

  const Topology topo = BuildSpineLeaf({.num_spine = 54,
                                        .num_leaf = 102 * scale,
                                        .num_tor = 108 * scale,
                                        .hosts_per_tor = 18,
                                        .num_pods = 6 * scale,
                                        .host_link_bps = Gbps64(56),
                                        .tor_leaf_bps = Gbps64(56),
                                        .leaf_spine_bps = Gbps64(56)});
  const std::vector<NodeId> hosts = topo.Hosts();

  // 64 profiled workloads; the offline database clusters them into 8 PLs
  // once, replicated to every shard (§5.4).
  constexpr int kWorkloads = 64;
  SensitivityTable table;
  Rng model_rng(Rng::StreamSeed(seed, 1));
  for (int w = 0; w < kWorkloads; ++w) {
    SensitivityEntry entry;
    entry.model = RandomConvexModel(3, &model_rng);
    table.Put("w" + std::to_string(w), entry);
  }
  const MappingDatabase database =
      MappingDatabase::Build(table, /*num_pls=*/8, Rng::StreamSeed(seed, 2));

  const Schedule schedule =
      BuildSchedule(hosts, kWorkloads, static_cast<size_t>(target_flows), num_events,
                    Rng::StreamSeed(seed, 3));
  std::cerr << "[fig11-scale] " << hosts.size() << " hosts, " << topo.num_links() << " ports, "
            << schedule.ramp.size() << " jobs, " << schedule.concurrent_flows
            << " concurrent flows, " << schedule.events.size() << " churn events\n";

  std::vector<int> shard_counts;
  if (shards_knob > 0) {
    shard_counts.push_back(shards_knob);
  } else {
    shard_counts = {1, 2, 4, 8};
  }

  std::vector<UniverseResult> results;
  for (const int shards : shard_counts) {
    results.push_back(RunUniverse(topo, table, database, schedule, shards,
                                  Rng::StreamSeed(seed, 4)));
    const UniverseResult& r = results.back();
    std::vector<double> ms;
    ms.reserve(r.churn_flush_seconds.size());
    for (const double s : r.churn_flush_seconds) {
      ms.push_back(s * 1e3);
    }
    std::fprintf(stderr,
                 "[fig11-scale] shards=%d churn flush ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
                 shards, Percentile(ms, 50), Percentile(ms, 90), Percentile(ms, 99),
                 Percentile(ms, 100));
  }

  // Every universe consumed the same delta stream, so the programmed state
  // and the merged counters must be bit-identical (§7.3). A mismatch is a
  // determinism bug, not a report.
  for (size_t u = 1; u < results.size(); ++u) {
    if (results[u].digest != results[0].digest ||
        results[u].port_reconfigurations != results[0].port_reconfigurations ||
        results[u].flushes != results[0].flushes ||
        results[u].ports_flushed != results[0].ports_flushed ||
        results[u].conn_creates != results[0].conn_creates) {
      std::cerr << "fatal: shard count " << shard_counts[u]
                << " diverged from shard count " << shard_counts[0]
                << " (digest or invariant counters differ)\n";
      std::exit(1);
    }
  }

  // Shard-count-invariant report: these lines must be byte-identical for
  // every SABA_SHARDS setting (scripts/check_repro.sh diffs 1 against 8).
  char digest_line[64];
  std::snprintf(digest_line, sizeof(digest_line), "state digest: %016llx",
                static_cast<unsigned long long>(results[0].digest));
  std::cout << digest_line << '\n';
  std::cout << "port reconfigurations: " << results[0].port_reconfigurations << '\n';
  std::cout << "flushes: " << results[0].flushes << '\n';
  std::cout << "ports flushed: " << results[0].ports_flushed << '\n';
  std::cout << "conns created: " << results[0].conn_creates << '\n';
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
