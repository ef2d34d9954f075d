#include "src/core/distributed_controller.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/core/sensitivity.h"
#include "src/numerics/linalg.h"
#include "src/sim/wallclock.h"

namespace saba {
MappingDatabase MappingDatabase::Build(const SensitivityTable& table, int num_pls,
                                       uint64_t seed) {
  assert(table.size() > 0);
  std::vector<std::string> names;
  std::vector<SensitivityModel> models;
  names.reserve(table.size());
  for (const auto& [name, entry] : table.entries()) {
    names.push_back(name);
    models.push_back(entry.model);
  }
  Rng rng(seed);
  const PlMapping mapping = MapAppsToPls(models, num_pls, &rng);

  MappingDatabase db;
  for (size_t i = 0; i < names.size(); ++i) {
    db.workload_to_pl[names[i]] = mapping.app_to_pl[i];
  }
  db.pl_models = mapping.pl_models;
  return db;
}

int MappingDatabase::PlForWorkload(const std::string& workload) const {
  auto it = workload_to_pl.find(workload);
  if (it != workload_to_pl.end()) {
    return it->second;
  }
  // Unknown workload: treat as insensitive and pick the nearest centroid.
  const SensitivityModel fallback;
  size_t dim = 1;
  for (const SensitivityModel& model : pl_models) {
    dim = std::max(dim, model.polynomial().degree() + 1);
  }
  const std::vector<double> target = fallback.CoefficientVector(dim);
  int best_pl = 0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < pl_models.size(); ++p) {
    const double d = SquaredDistance(target, pl_models[p].CoefficientVector(dim));
    if (d < best) {
      best = d;
      best_pl = static_cast<int>(p);
    }
  }
  return best_pl;
}

DistributedController::DistributedController(Network* network, FlowSimulator* flow_sim,
                                             const SensitivityTable* table,
                                             MappingDatabase database,
                                             DistributedControllerOptions options)
    : CentralizedController(network, flow_sim, table, options.base),
      database_(std::move(database)),
      num_shards_(options.num_shards),
      shard_jobs_(options.shard_jobs) {
  assert(num_shards_ >= 1);
  assert(shard_jobs_ >= 1);
  assert(!database_.pl_models.empty());
  // One solve context per shard, each with its own Eq-2 cache and queue-map
  // memo over the (static, §5.4) database geometry. The contexts never need
  // rebuilding: the distributed controller does not re-cluster at runtime.
  shard_ctxs_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    shard_ctxs_.emplace_back(options.base.solve_cache);
    shard_ctxs_.back().mapper.emplace(database_.pl_models, options.base.solve_cache);
  }
  shard_ports_.resize(static_cast<size_t>(num_shards_));
}

int DistributedController::AppRegister(AppId app, const std::string& workload_name) {
  const int pl = database_.PlForWorkload(workload_name);
  RegisterAppStatic(app, workload_name, pl);
  if (flow_sim_ != nullptr) {
    flow_sim_->SetAppServiceLevel(app, pl);
  }
  return pl;
}

void DistributedController::AppDeregister(AppId app) {
  auto it = apps_.find(app);
  assert(it != apps_.end());
  // No port lists an application without connections, so no PortApp points
  // at the node erased here.
  assert(it->second.connections == 0 && "deregistering with live connections");
  ++stats_.deregistrations;
  apps_.erase(it);
  // No re-clustering: the PL geometry is fixed by the offline database.
}

void DistributedController::FlushDirtyPorts() {
  if (dirty_ports_.empty()) {
    return;
  }
  Stopwatch watch;

  // Batch the delta stream per owning shard, clearing the dirty flags here on
  // the calling thread: the workers below read only port_apps_ and apps_.
  // Each shard's batch is sorted ascending, and results cannot depend on
  // visit order anyway — solves are keyed by signature, ports are disjoint
  // across shards.
  for (std::vector<LinkId>& batch : shard_ports_) {
    batch.clear();
  }
  for (LinkId link : dirty_ports_) {
    port_dirty_[static_cast<size_t>(link)] = 0;
    shard_ports_[static_cast<size_t>(ShardOfPort(link))].push_back(link);
  }
  dirty_ports_.clear();

  dirty_shards_.clear();
  size_t dirty_count = 0;
  for (int s = 0; s < num_shards_; ++s) {
    std::vector<LinkId>& batch = shard_ports_[static_cast<size_t>(s)];
    if (batch.empty()) {
      continue;
    }
    std::sort(batch.begin(), batch.end());
    dirty_shards_.push_back(s);
    dirty_count += batch.size();
  }

  ++dist_stats_.flushes;
  dist_stats_.ports_flushed += dirty_count;

  // Adaptive dispatch (DESIGN.md §7.3): one pool task per dirty shard, or
  // the caller thread when the batch is too small to amortize the dispatch.
  // The decision is a pure function of the delta stream, num_shards, and
  // shard_jobs — never of thread timing.
  const bool fan_out =
      shard_jobs_ > 1 && dirty_shards_.size() > 1 && dirty_count >= kMinParallelFlushPorts;
  if (fan_out) {
    ++dist_stats_.parallel_flushes;
    // Pre-create each active port's weight slot serially: the workers then
    // only rewrite per-port vectors, never the shared map's structure.
    for (const int s : dirty_shards_) {
      for (const LinkId link : shard_ports_[static_cast<size_t>(s)]) {
        if (!port_apps_[static_cast<size_t>(link)].empty()) {
          (void)port_weights_[link];
        }
      }
    }
    if (pool_ == nullptr) {
      pool_ = std::make_unique<WorkerPool>(shard_jobs_);
    }
    pool_->Run(dirty_shards_.size(), [this](size_t index) {
      const int shard = dirty_shards_[index];
      PortSolveContext* ctx = &shard_ctxs_[static_cast<size_t>(shard)];
      for (const LinkId link : shard_ports_[static_cast<size_t>(shard)]) {
        ReallocatePort(link, ctx);
      }
    });
  } else {
    for (const int shard : dirty_shards_) {
      PortSolveContext* ctx = &shard_ctxs_[static_cast<size_t>(shard)];
      for (const LinkId link : shard_ports_[static_cast<size_t>(shard)]) {
        ReallocatePort(link, ctx);
      }
    }
  }

  // Deterministic merge: drain per-shard counters in ascending shard order
  // after the workers have joined.
  for (const int shard : dirty_shards_) {
    DrainContextStats(&shard_ctxs_[static_cast<size_t>(shard)]);
  }
  FinishFlush(watch.ElapsedSeconds());
}

int DistributedController::ShardOfPort(LinkId link) const {
  const Link& l = network_->topology().link(link);
  const NodeId owner = IsSwitch(network_->topology().node(l.src).kind) ? l.src : l.dst;
  return static_cast<int>(owner) % num_shards_;
}

}  // namespace saba
