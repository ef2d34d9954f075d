// Distributed controller (paper §5.4).
//
// Eq 2 is independent per switch output port, so the controller logic shards
// cleanly: each controller instance owns a group of switches and configures
// only their ports, fetching the application-to-PL mapping and PL clusters
// from a replicated database that the *profiler* populated offline. The price
// of sharding is staleness: PLs are clustered over the full profiled catalog
// rather than the live application mix, so the grouping can be coarser than
// the centralized controller's (the paper measures this at ~4%, study 7).
//
// The implementation reuses the centralized port machinery (the math is
// identical per port) and shards it for real: each shard owns the disjoint
// set of ports whose owning switch hashes to it, with its own solve context
// (Eq-2 cache, queue-map memo, scratch). A flush batches the dirty-port
// delta stream per shard and dispatches one task per dirty shard across a
// saba::WorkerPool (`shard_jobs` workers); small batches fall back to the
// caller thread.
//
// Determinism (DESIGN.md §7.3): shards own disjoint ports and write only
// their own context, their ports' PortConfig, and their ports' pre-created
// port_weights_ slots; stats merge in ascending shard order after the
// workers join. Because an Eq-2 solve is a pure function of the port's
// app-mix signature — canonical model order, Rng seeded from the signature
// (§7.2) — per-shard caches dedupe independently yet program bit-identical
// state for identical mixes, with no cross-shard cache coherence. Neither
// num_shards nor shard_jobs can change any programmed rate, queue map, or
// merged stats counter (tests/sharded_flush_test.cc enforces this against
// the centralized oracle under churn). Only the eq2 hit/miss *split* and
// `parallel_flushes` depend on num_shards; the hit/miss totals do not.

#ifndef SRC_CORE_DISTRIBUTED_CONTROLLER_H_
#define SRC_CORE_DISTRIBUTED_CONTROLLER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/sim/worker_pool.h"

namespace saba {

// The offline mapping database: workload -> PL plus the PL centroid models.
// Built once from the full sensitivity table and handed to the controller in
// memory (the paper replicates it to every controller shard, §5.4).
struct MappingDatabase {
  std::map<std::string, int> workload_to_pl;
  std::vector<SensitivityModel> pl_models;

  static MappingDatabase Build(const SensitivityTable& table, int num_pls, uint64_t seed);

  // PL for a workload; unknown workloads get the PL whose centroid is
  // nearest to the insensitive default model.
  int PlForWorkload(const std::string& workload) const;
};

struct DistributedControllerOptions {
  ControllerOptions base;
  // Number of controller shards; switches are assigned round-robin by id.
  int num_shards = 8;
  // Worker threads for the sharded flush (1 = serial on the caller thread,
  // the default so existing byte-streams are unchanged). Results are
  // bit-identical at every setting — the fan-out is pure scheduling.
  int shard_jobs = 1;
};

struct DistributedControllerStats {
  // Flush accounting. `flushes` and `ports_flushed` are invariant across
  // both num_shards and shard_jobs; `parallel_flushes` counts batches
  // dispatched to the worker pool — a deterministic function of the delta
  // stream and num_shards, always 0 when shard_jobs == 1 and identical for
  // every shard_jobs > 1.
  uint64_t flushes = 0;
  uint64_t parallel_flushes = 0;
  uint64_t ports_flushed = 0;
};

class DistributedController : public CentralizedController {
 public:
  DistributedController(Network* network, FlowSimulator* flow_sim,
                        const SensitivityTable* table, MappingDatabase database,
                        DistributedControllerOptions options = {});

  // Registration consults the static database — no re-clustering happens at
  // runtime (that is exactly the §5.4 trade-off).
  int AppRegister(AppId app, const std::string& workload_name) override;
  void AppDeregister(AppId app) override;

  const DistributedControllerStats& distributed_stats() const { return dist_stats_; }

  // The shard owning a port (the src node for switch egress; the dst switch
  // for host NIC egress, since the NIC is configured via its ToR's manager).
  int ShardOfPort(LinkId link) const;

 protected:
  // Partitions the dirty list by owning shard and reallocates each shard's
  // batch with that shard's own solve context — on the worker pool when the
  // batch is big enough (see kMinParallelFlushPorts), inline otherwise.
  void FlushDirtyPorts() override;

 private:
  // Batches below this many dirty ports run on the caller thread even with
  // shard_jobs > 1: pool dispatch costs a few microseconds, which dwarfs a
  // handful of warm-cache port solves (DESIGN.md §7.3).
  static constexpr size_t kMinParallelFlushPorts = 64;

  MappingDatabase database_;
  int num_shards_;
  int shard_jobs_;
  DistributedControllerStats dist_stats_;
  // One solve context per shard; shard s is touched by exactly one worker
  // task per flush, so contexts are worker-confined by construction.
  std::vector<PortSolveContext> shard_ctxs_;
  std::vector<std::vector<LinkId>> shard_ports_;  // Scratch: dirty links per shard.
  std::vector<int> dirty_shards_;                 // Scratch: shards with work, ascending.
  std::unique_ptr<WorkerPool> pool_;              // Lazy; only with shard_jobs > 1.
};

}  // namespace saba

#endif  // SRC_CORE_DISTRIBUTED_CONTROLLER_H_
