#include "src/core/controller.h"

#include <algorithm>
#include <cassert>

#include "src/net/routing.h"
#include "src/sim/log.h"
#include "src/sim/wallclock.h"

namespace saba {

CentralizedController::CentralizedController(Network* network, FlowSimulator* flow_sim,
                                             const SensitivityTable* table,
                                             ControllerOptions options)
    : network_(network),
      flow_sim_(flow_sim),
      table_(table),
      options_(options),
      solver_({.capacity = options.c_saba, .relative_min_weight = options.relative_min_weight}),
      rng_(options.seed),
      solve_ctx_(options.solve_cache) {
  assert(network_ != nullptr);
  assert(table_ != nullptr);
  assert(options_.num_pls >= 1 && options_.num_pls <= kNumServiceLevels);
  assert(options_.reserved_queues >= 0);
  const size_t num_links = network_->topology().num_links();
  port_apps_.resize(num_links);
  port_dirty_.assign(num_links, 0);
}

size_t CentralizedController::ConnKeyHash::operator()(const ConnKey& key) const {
  const auto& [app, src, dst, salt] = key;
  return static_cast<size_t>(PathDigest(src, dst, salt) ^
                             (static_cast<uint64_t>(app) * 0x9e3779b97f4a7c15ULL));
}

int CentralizedController::AppRegister(AppId app, const std::string& workload_name) {
  assert(apps_.find(app) == apps_.end() && "application already registered");
  ++stats_.registrations;
  AppState state;
  state.workload = workload_name;
  if (table_->Find(workload_name) == nullptr) {
    SABA_LOG_WARNING << "no sensitivity profile for workload '" << workload_name
                     << "'; treating it as bandwidth-insensitive";
  }
  state.model = table_->ModelOrDefault(workload_name);
  apps_.emplace(app, std::move(state));
  ReclusterPls();
  return apps_.at(app).pl;
}

void CentralizedController::AppDeregister(AppId app) {
  auto it = apps_.find(app);
  assert(it != apps_.end());
  // No port lists an application without connections, so no PortApp points
  // at the node erased here.
  assert(it->second.connections == 0 && "deregistering with live connections");
  ++stats_.deregistrations;
  apps_.erase(it);
  if (!apps_.empty()) {
    ReclusterPls();
  }
}

int CentralizedController::CurrentServiceLevel(AppId app) const { return apps_.at(app).pl; }

void CentralizedController::ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t path_salt) {
  auto it = apps_.find(app);
  assert(it != apps_.end() && "connection from unregistered application");
  ++stats_.conn_creates;
  AppState& state = it->second;
  ++state.connections;

  const std::vector<LinkId>& path = network_->router().Route(src, dst, path_salt);
  for (LinkId link : path) {
    std::vector<PortApp>& apps = port_apps_[static_cast<size_t>(link)];
    auto pos = std::lower_bound(apps.begin(), apps.end(), app,
                                [](const PortApp& entry, AppId a) { return entry.app < a; });
    if (pos == apps.end() || pos->app != app) {
      pos = apps.insert(pos, PortApp{app, 0, &state});
    }
    ++pos->count;
    MarkPortDirty(link);
  }
  // Snapshot the accounted path: a later failure may reroute this pair, and
  // ConnDestroy must release exactly these ports (see conn_paths_).
  conn_paths_[ConnKey(app, src, dst, path_salt)].push_back(path);
  RequestFlush();
}

void CentralizedController::ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t path_salt) {
  auto it = apps_.find(app);
  assert(it != apps_.end());
  ++stats_.conn_destroys;
  --it->second.connections;
  assert(it->second.connections >= 0);

  // Unwind the ports charged at create time — not today's route, which may
  // differ after a failure (see conn_paths_).
  const auto conn_it = conn_paths_.find(ConnKey(app, src, dst, path_salt));
  assert(conn_it != conn_paths_.end() && "destroying a connection that was never created");
  const std::vector<LinkId> path = std::move(conn_it->second.back());
  conn_it->second.pop_back();
  if (conn_it->second.empty()) {
    conn_paths_.erase(conn_it);
  }
  for (LinkId link : path) {
    std::vector<PortApp>& apps = port_apps_[static_cast<size_t>(link)];
    auto pos = std::lower_bound(apps.begin(), apps.end(), app,
                                [](const PortApp& entry, AppId a) { return entry.app < a; });
    assert(pos != apps.end() && pos->app == app);
    if (--pos->count == 0) {
      apps.erase(pos);
    }
    if (apps.empty()) {
      port_weights_.erase(link);
    } else {
      MarkPortDirty(link);
    }
  }
  RequestFlush();
}

void CentralizedController::RegisterAppStatic(AppId app, const std::string& workload_name,
                                              int pl) {
  assert(apps_.find(app) == apps_.end() && "application already registered");
  assert(pl >= 0 && pl < options_.num_pls);
  ++stats_.registrations;
  AppState state;
  state.workload = workload_name;
  state.model = table_->ModelOrDefault(workload_name);
  state.pl = pl;
  apps_.emplace(app, std::move(state));
}

void CentralizedController::InstallPlModels(const std::vector<SensitivityModel>& pl_models) {
  solve_ctx_.mapper.emplace(pl_models, options_.solve_cache);
}

void CentralizedController::ReclusterPls() {
  assert(!apps_.empty());
  ++stats_.pl_reclusterings;

  std::vector<AppId> ids;
  std::vector<SensitivityModel> models;
  ids.reserve(apps_.size());
  models.reserve(apps_.size());
  for (const auto& [id, state] : apps_) {
    ids.push_back(id);
    models.push_back(state.model);
  }

  const PlMapping mapping = MapAppsToPls(models, options_.num_pls, &rng_);
  for (size_t i = 0; i < ids.size(); ++i) {
    apps_.at(ids[i]).pl = mapping.app_to_pl[i];
    if (flow_sim_ != nullptr) {
      flow_sim_->SetAppServiceLevel(ids[i], mapping.app_to_pl[i]);
    }
  }
  // Rebuilding the mapper is the queue-map memo's epoch invalidation: the PL
  // geometry its keys refer to is gone. The Eq-2 solve cache survives — its
  // entries are keyed by the full solver input (the model multiset), which
  // re-clustering does not change.
  solve_ctx_.mapper.emplace(mapping.pl_models, options_.solve_cache);

  // PL geometry changed; every active port needs a fresh mapping.
  MarkActivePortsDirty();
  RequestFlush();
}

void CentralizedController::MarkActivePortsDirty() {
  for (size_t link = 0; link < port_apps_.size(); ++link) {
    if (!port_apps_[link].empty()) {
      MarkPortDirty(static_cast<LinkId>(link));
    }
  }
}

void CentralizedController::RequestFlush() {
  if (flow_sim_ == nullptr) {
    FlushDirtyPorts();
    return;
  }
  if (!flush_scheduled_ && !dirty_ports_.empty()) {
    flush_scheduled_ = true;
    flow_sim_->scheduler()->ScheduleAfter(0, [this] {
      flush_scheduled_ = false;
      FlushDirtyPorts();
    });
  }
}

void CentralizedController::DrainContextStats(PortSolveContext* ctx) {
  stats_.port_reconfigurations += ctx->reconfigurations;
  stats_.eq2_cache_hits += ctx->cache_hits;
  stats_.eq2_cache_misses += ctx->cache_misses;
  ctx->reconfigurations = 0;
  ctx->cache_hits = 0;
  ctx->cache_misses = 0;
}

void CentralizedController::FinishFlush(double elapsed_seconds) {
  stats_.last_calc_wall_seconds = elapsed_seconds;
  stats_.total_calc_wall_seconds += elapsed_seconds;
  if (flow_sim_ != nullptr) {
    flow_sim_->RequestReallocate();
  }
}

void CentralizedController::FlushDirtyPorts() {
  if (dirty_ports_.empty()) {
    return;
  }
  Stopwatch watch;
  // Ascending link order: independent of marking order, and cache-friendly.
  // Results do not depend on it — solves are keyed by signature, not
  // history.
  std::sort(dirty_ports_.begin(), dirty_ports_.end());
  for (LinkId link : dirty_ports_) {
    port_dirty_[static_cast<size_t>(link)] = 0;
    ReallocatePort(link, &solve_ctx_);
  }
  dirty_ports_.clear();
  DrainContextStats(&solve_ctx_);
  FinishFlush(watch.ElapsedSeconds());
}

void CentralizedController::ReallocatePort(LinkId link, PortSolveContext* ctx) {
  const std::vector<PortApp>& apps = port_apps_[static_cast<size_t>(link)];
  if (apps.empty()) {
    return;
  }
  assert(ctx->mapper.has_value());
  ++ctx->reconfigurations;

  // Hot path: one call per dirty port per flush, and a ReclusterPls marks
  // every active port dirty. All per-call containers are scratch arenas on
  // the context, in the style of allocation_engine.cc.
  std::vector<AppId>& ids = ctx->ids;
  std::vector<const SensitivityModel*>& models = ctx->models;
  std::vector<int>& app_pls = ctx->app_pls;
  PortSignature& sig = ctx->sig;
  std::vector<SensitivityModel>& canonical_models = ctx->canonical_models;
  std::vector<int>& present_pls = ctx->present_pls;
  std::vector<double>& queue_weights = ctx->queue_weights;

  ids.clear();
  models.clear();
  app_pls.clear();
  for (const PortApp& entry : apps) {
    ids.push_back(entry.app);
    models.push_back(&entry.state->model);
    app_pls.push_back(entry.state->pl);
  }
  const size_t n = ids.size();

  // Solve Eq 2 over the applications at this port — in canonical (signature)
  // order, with the solver's Rng stream derived from the signature rather
  // than from controller history. That makes the result a pure function of
  // the app mix, so the solve cache can replay it bit-identically for every
  // other port carrying the same mix (DESIGN.md §7.2).
  BuildPortSignature(models, &sig);
  const std::vector<double>* canonical_weights = ctx->cache.Find(sig);
  if (canonical_weights != nullptr) {
    ++ctx->cache_hits;
  } else {
    ++ctx->cache_misses;
    canonical_models.clear();
    canonical_models.reserve(n);
    for (uint32_t idx : sig.order) {
      canonical_models.push_back(*models[idx]);
    }
    Rng solve_rng = Rng::ForStream(options_.seed, sig.hash);
    WeightSolverResult solved = solver_.Solve(canonical_models, &solve_rng);
    canonical_weights = &ctx->cache.Insert(sig, std::move(solved.weights));
  }

  // Un-permute the canonical weights back to port (ascending AppId) order.
  // Under a parallel flush the map slot was pre-created serially, so this
  // operator[] is a pure lookup and workers only rewrite their own ports'
  // vectors — the map structure itself is never mutated concurrently.
  assert(sig.order.size() == n);
  assert(canonical_weights->size() == n);
  std::vector<std::pair<AppId, double>>& weights = port_weights_[link];
  weights.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = sig.order[k];
    weights[i] = {ids[i], (*canonical_weights)[k]};
  }

  // The PLs present at this port, ascending (the canonical form the
  // queue-map memo keys on). Fixed-size seen-mask: the old std::find dedupe
  // was quadratic in the app count.
  bool seen[kNumServiceLevels] = {};
  for (int pl : app_pls) {
    assert(pl >= 0 && pl < kNumServiceLevels);
    seen[pl] = true;
  }
  present_pls.clear();
  for (int pl = 0; pl < kNumServiceLevels; ++pl) {
    if (seen[pl]) {
      present_pls.push_back(pl);
    }
  }
  PortConfig& port = network_->port(link);
  // The last `reserved_queues` queues belong to non-Saba traffic (§3) and
  // are never remapped; Saba distributes its PLs over the rest.
  const int saba_queues = port.num_queues - options_.reserved_queues;
  assert(saba_queues >= 1 && "reservation leaves no queues for Saba traffic");
  const QueueMapper::PortMapping& mapping = ctx->mapper->MapPortMemo(present_pls, saba_queues);

  // Program the SL->queue table (SL == PL for Saba traffic; SLs outside the
  // Saba PL range route to the first reserved queue when one exists) and the
  // queue weights: each Saba queue's weight is the sum of the Eq-2 shares of
  // the applications mapped into it (§5.3.2).
  const int non_saba_queue = options_.reserved_queues > 0 ? saba_queues : 0;
  queue_weights.assign(static_cast<size_t>(port.num_queues), 1e-6);
  for (int sl = 0; sl < kNumServiceLevels; ++sl) {
    const int queue = static_cast<size_t>(sl) < mapping.pl_to_queue.size()
                          ? mapping.pl_to_queue[static_cast<size_t>(sl)]
                          : -1;
    port.sl_to_queue[static_cast<size_t>(sl)] = queue >= 0 ? queue : non_saba_queue;
  }
  for (size_t i = 0; i < n; ++i) {
    const int queue = mapping.pl_to_queue[static_cast<size_t>(app_pls[i])];
    assert(queue >= 0 && queue < saba_queues);
    queue_weights[static_cast<size_t>(queue)] += weights[i].second;
  }
  for (int q = saba_queues; q < port.num_queues; ++q) {
    queue_weights[static_cast<size_t>(q)] = options_.reserved_queue_weight;
  }
  port.queue_weights = queue_weights;  // Copy-assign: reuses the port's buffer.
}

double CentralizedController::RecomputeAllPortsTimed() {
  MarkActivePortsDirty();
  if (dirty_ports_.empty()) {
    stats_.last_calc_wall_seconds = 0;
    return 0;
  }
  // The virtual flush, so the distributed controller's sharded fan-out is
  // what gets timed (the Fig 12 "calculation time" and the scale bench both
  // land here). Any flush already pending for these ports is absorbed: the
  // scheduled callback later finds an empty dirty list and no-ops.
  FlushDirtyPorts();
  return stats_.last_calc_wall_seconds;
}

uint64_t CentralizedController::StateDigest() const {
  uint64_t h = kFnvOffsetBasis;
  const size_t num_links = network_->topology().num_links();
  for (LinkId link = 0; link < static_cast<LinkId>(num_links); ++link) {
    const PortConfig& port = network_->port(link);
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

double CentralizedController::AppWeightAtPort(LinkId link, AppId app) const {
  auto it = port_weights_.find(link);
  if (it == port_weights_.end()) {
    return 0;
  }
  const std::vector<std::pair<AppId, double>>& weights = it->second;
  auto app_it = std::lower_bound(
      weights.begin(), weights.end(), app,
      [](const std::pair<AppId, double>& entry, AppId a) { return entry.first < a; });
  return app_it != weights.end() && app_it->first == app ? app_it->second : 0;
}

}  // namespace saba
