// Saba's controller (paper §5): tracks registered applications and their
// connections, solves the per-port weight problem (Eq 2), maps applications
// to PLs (K-means) and PLs to queues (hierarchy walk), and programs the
// switches' SL-to-VL tables and VL weights.
//
// ControllerInterface mirrors the RPC surface the Saba library calls (Fig 7):
// app_register / conn_create / conn_destroy / app_deregister.

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/core/pl_mapper.h"
#include "src/core/queue_mapper.h"
#include "src/core/sensitivity.h"
#include "src/core/solve_cache.h"
#include "src/core/weight_solver.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/sim/rng.h"

namespace saba {

class ControllerInterface {
 public:
  virtual ~ControllerInterface() = default;

  // Registers a Saba-compliant application; returns its assigned PL (== the
  // Service Level its connections must carry).
  virtual int AppRegister(AppId app, const std::string& workload_name) = 0;

  // Announces a connection. `path_salt` must match the salt the transport
  // uses so the controller resolves the same path (the real controller reads
  // the fabric's forwarding tables, §7.2).
  virtual void ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t path_salt) = 0;
  virtual void ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t path_salt) = 0;

  virtual void AppDeregister(AppId app) = 0;

  // The application's current PL (PLs move when the controller re-clusters).
  virtual int CurrentServiceLevel(AppId app) const = 0;
};

struct ControllerOptions {
  // Number of priority levels used for Saba traffic. The testbed reserves 8
  // VLs of the switch's 9 (§8.1); InfiniBand's ceiling is 16.
  int num_pls = 8;
  // C_saba: fraction of each link managed by Saba (1.0 in all experiments).
  double c_saba = 1.0;
  // Weight floor per application at a port, relative to the equal share
  // (see WeightSolverOptions; the absolute floor keeps its default).
  double relative_min_weight = 0.75;
  // Non-Saba co-existence (§3): the operator may statically reserve the
  // *last* `reserved_queues` queues of every port for non-compliant traffic
  // (control services, latency-critical RPCs). Saba never remaps them; SLs
  // not assigned to Saba PLs stay pointed at the first reserved queue, and
  // each reserved queue keeps `reserved_queue_weight` of scheduling weight.
  // With reservations the operator normally also sets c_saba < 1.
  int reserved_queues = 0;
  double reserved_queue_weight = 0.1;
  // Signature-keyed memoization of Eq-2 solves and PL-to-queue mappings
  // (DESIGN.md §7.2). Off is for A/B testing only — results are bit-identical
  // either way (the solve is a pure function of the port's app-mix
  // signature); the cache just skips re-deriving them.
  bool solve_cache = true;
  uint64_t seed = 7;
};

// Everything one flush worker needs to reallocate ports independently: the
// shard's Eq-2 solve cache and queue-map memo plus the per-call scratch
// arenas (allocation_engine.cc style) and flush-local stat counters. The
// centralized controller owns exactly one; DistributedController owns one per
// shard, each touched by at most one WorkerPool task per flush (DESIGN.md
// §7.3) — contexts are never shared between concurrent workers.
struct PortSolveContext {
  explicit PortSolveContext(bool cache_enabled) : cache(cache_enabled) {}

  // Memoized Eq-2 solves keyed by app-mix signature (DESIGN.md §7.2).
  // Persists across re-clusterings: entries are keyed by the full solver
  // input, so they can never go stale.
  Eq2SolveCache cache;
  std::optional<QueueMapper> mapper;

  // Stat deltas local to the current flush; the owning controller drains
  // them into its ControllerStats in canonical shard order after workers
  // join, so the totals never depend on scheduling.
  uint64_t reconfigurations = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // ReallocatePort scratch, reused across calls to avoid reallocation.
  std::vector<AppId> ids;
  std::vector<const SensitivityModel*> models;
  std::vector<int> app_pls;
  PortSignature sig;
  std::vector<SensitivityModel> canonical_models;
  std::vector<int> present_pls;
  std::vector<double> queue_weights;
};

struct ControllerStats {
  uint64_t registrations = 0;
  uint64_t deregistrations = 0;
  uint64_t conn_creates = 0;
  uint64_t conn_destroys = 0;
  uint64_t port_reconfigurations = 0;
  uint64_t pl_reclusterings = 0;
  // Eq-2 solve cache traffic: hits are reconfigured ports whose app-mix
  // signature was already solved; misses are distinct solves actually run.
  uint64_t eq2_cache_hits = 0;
  uint64_t eq2_cache_misses = 0;
  // Wall-clock cost of weight calculations (Eq 2 solves), for Fig 12.
  double total_calc_wall_seconds = 0;
  double last_calc_wall_seconds = 0;
};

class CentralizedController : public ControllerInterface {
 public:
  // `flow_sim` may be null for offline/what-if use (no live retagging).
  CentralizedController(Network* network, FlowSimulator* flow_sim,
                        const SensitivityTable* table, ControllerOptions options = {});

  int AppRegister(AppId app, const std::string& workload_name) override;
  void ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void AppDeregister(AppId app) override;
  int CurrentServiceLevel(AppId app) const override;

  const ControllerStats& stats() const { return stats_; }

  // Recomputes every port currently carrying Saba connections and returns
  // the wall-clock seconds spent — the Fig 12 "calculation time".
  double RecomputeAllPortsTimed();

  // The last solved weight of `app` at port `link` (its Eq-2 share before
  // queue grouping), or 0 if the app has no flows there. Feeds the
  // PerAppWfqAllocator in the unlimited-queues configuration (Fig 11b).
  double AppWeightAtPort(LinkId link, AppId app) const;

  size_t registered_app_count() const { return apps_.size(); }

  // FNV-1a fingerprint of everything the controller programmed: per-port SL
  // tables, queue weights and solved per-app weights, in ascending link
  // order. A pure function of the delta stream: the solve cache mode, the
  // shard count and the flush worker count never move it (DESIGN.md §7.2).
  uint64_t StateDigest() const;

  // Offline registration (§5.4), for a PL geometry clustered ahead of time:
  // InstallPlModels fixes the PL centroid models the queue mapper walks, and
  // RegisterAppStatic registers `app` at a fixed PL without re-clustering.
  // The distributed controller registers this way from its mapping database.
  void InstallPlModels(const std::vector<SensitivityModel>& pl_models);
  void RegisterAppStatic(AppId app, const std::string& workload_name, int pl);

 protected:
  struct AppState {
    std::string workload;
    SensitivityModel model;
    int pl = 0;
    int connections = 0;
  };

  // One application's live connections through a port. `state` points into
  // apps_, a std::map whose nodes never move; an application leaves apps_
  // only with zero connections, when no port lists it any more.
  struct PortApp {
    AppId app;
    int count;
    const AppState* state;
  };

  // Re-runs application-to-PL K-means and rebuilds the PL hierarchy; retags
  // live flows; refreshes every active port.
  void ReclusterPls();

  // Solves Eq 2 for the applications at `link` and programs the port, using
  // `ctx`'s cache, mapper, and scratch. Thread-compatible as long as each
  // concurrent caller owns a distinct ctx and a disjoint set of links, reads
  // apps_/port_apps_ only, and finds its port_weights_ slot pre-created (see
  // DistributedController::FlushDirtyPorts).
  void ReallocatePort(LinkId link, PortSolveContext* ctx);

  // Adds `link` to the dirty list unless it is already there.
  void MarkPortDirty(LinkId link) {
    uint8_t& flag = port_dirty_[static_cast<size_t>(link)];
    if (flag == 0) {
      flag = 1;
      dirty_ports_.push_back(link);
    }
  }
  // Marks every port that carries a live connection.
  void MarkActivePortsDirty();
  // Flushes the dirty ports. With a live flow simulator the flush is
  // coalesced to the end of the current simulated instant (a burst of
  // conn_create calls — e.g. a whole job starting — costs one recompute per
  // port); offline it is synchronous.
  void RequestFlush();
  // Reallocates every dirty port and empties the dirty list. Virtual so the
  // distributed controller can fan the batch across its shard workers; every
  // override must program byte-identical state to this serial walk.
  virtual void FlushDirtyPorts();

  // Folds ctx's flush-local counters into stats_ and resets them. Called
  // after a flush in canonical (ascending shard) order.
  void DrainContextStats(PortSolveContext* ctx);

  // Records the wall-clock cost of one flush in stats_ and pokes the flow
  // simulator for a re-allocation pass.
  void FinishFlush(double elapsed_seconds);

  Network* network_;
  FlowSimulator* flow_sim_;
  const SensitivityTable* table_;
  ControllerOptions options_;
  WeightSolver solver_;
  Rng rng_;
  ControllerStats stats_;

  std::map<AppId, AppState> apps_;
  // port_apps_[link]: the applications with live connections through `link`,
  // ascending by AppId (the order ReallocatePort reads them in). One entry
  // per topology link; an idle port's list is empty.
  std::vector<std::vector<PortApp>> port_apps_;
  // Connection tuple -> the paths its live connections were charged under,
  // LIFO for duplicates. ConnDestroy must unwind exactly the ports ConnCreate
  // charged: re-resolving at destroy time would corrupt port_apps_ whenever a
  // failure rerouted the pair in between. Connections rerouted mid-life stay
  // accounted at their create-time ports until they close — the real
  // controller polls forwarding state periodically (§7.2), so bounded
  // staleness is faithful.
  using ConnKey = std::tuple<AppId, NodeId, NodeId, uint64_t>;
  struct ConnKeyHash {
    size_t operator()(const ConnKey& key) const;
  };
  // saba-lint: unordered-iter-ok(lookup-only: find/emplace/erase by key, never iterated)
  std::unordered_map<ConnKey, std::vector<std::vector<LinkId>>, ConnKeyHash> conn_paths_;
  // Per port: last solved per-application weights, sorted by AppId (a flat
  // vector rather than a map — rebuilt wholesale on every reallocation, so
  // node-based storage would be pure overhead on the hot path).
  // saba-lint: unordered-iter-ok(lookup-only: find/erase/rebuild, never iterated)
  std::unordered_map<LinkId, std::vector<std::pair<AppId, double>>> port_weights_;
  // The centralized controller's (only) solve context: cache, mapper, and
  // ReallocatePort scratch. Shard contexts live in DistributedController,
  // whose flush never touches this one.
  PortSolveContext solve_ctx_;
  // The ports awaiting the next flush, in marking order (each flush sorts
  // them), and a per-link flag that keeps each port on the list once. Only
  // a flush's calling thread clears them; flush workers never touch either.
  std::vector<LinkId> dirty_ports_;
  std::vector<uint8_t> port_dirty_;
  bool flush_scheduled_ = false;
};

}  // namespace saba

#endif  // SRC_CORE_CONTROLLER_H_
