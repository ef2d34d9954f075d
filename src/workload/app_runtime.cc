#include "src/workload/app_runtime.h"

#include <algorithm>
#include <vector>
#include <cassert>
#include <utility>

namespace saba {
namespace {

// Number of chunks the overlapped shuffle is paced into across the compute
// phase. More chunks track the "produce as you compute" behaviour more
// closely; 3 is plenty at fluid granularity.
constexpr int kOverlapChunks = 3;

// Relative in-queue weight of elastic (prefetch) flows: the application's own
// prefetcher yields to critical shuffle traffic wherever they contend, but
// soaks up capacity nobody else wants.
constexpr double kElasticIntraWeight = 0.15;

// Stable per-connection salt so a connection always takes the same ECMP path
// (like a real transport connection) and the router path cache stays warm
// across stages.
uint64_t ConnectionSalt(AppId app, int instance, int peer_slot) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(app)) << 32) |
         (static_cast<uint64_t>(static_cast<uint32_t>(instance)) << 8) |
         static_cast<uint64_t>(static_cast<uint32_t>(peer_slot));
}

}  // namespace

void AppNetworkPolicy::OnConnectionOpen(AppId, NodeId, NodeId, uint64_t) {}
void AppNetworkPolicy::OnConnectionClose(AppId, NodeId, NodeId, uint64_t) {}
void AppNetworkPolicy::OnAppFinish(AppId) {}
int AppNetworkPolicy::ServiceLevelFor(AppId) const { return -1; }

Application::Application(EventScheduler* scheduler, FlowSimulator* flow_sim, WorkloadSpec spec,
                         std::vector<NodeId> hosts, AppId id, AppNetworkPolicy* policy)
    : scheduler_(scheduler),
      flow_sim_(flow_sim),
      spec_(std::move(spec)),
      hosts_(std::move(hosts)),
      id_(id),
      policy_(policy) {
  assert(scheduler_ != nullptr && flow_sim_ != nullptr && policy_ != nullptr);
  assert(hosts_.size() >= 2 && "a distributed job needs at least two instances");
  assert(!spec_.stages.empty());
}

SimTime Application::CompletionSeconds() const {
  assert(finished_);
  return finish_time_ - start_time_;
}

void Application::Start(DoneCallback on_done) {
  assert(!started_);
  started_ = true;
  on_done_ = std::move(on_done);
  start_time_ = scheduler_->Now();
  sl_ = policy_->OnAppStart(id_, spec_.name, hosts_);
  assert(sl_ >= 0 && sl_ < kNumServiceLevels);
  BeginStage();
}

void Application::OpenStageConnections() {
  // The shuffle manager opens connections when a stage starts communicating
  // and tears them down at the stage barrier — so the controller always
  // allocates over the applications *actively using* each port (§5.1), not
  // over everything registered.
  if (connections_open_) {
    return;
  }
  connections_open_ = true;
  const int n = static_cast<int>(hosts_.size());
  const int fanout = std::min(spec_.fanout, n - 1);
  for (int i = 0; i < n; ++i) {
    for (int k = 1; k <= fanout; ++k) {
      const int peer = (i + k) % n;
      policy_->OnConnectionOpen(id_, hosts_[static_cast<size_t>(i)],
                                hosts_[static_cast<size_t>(peer)], ConnectionSalt(id_, i, k));
    }
  }
}

void Application::CloseStageConnections() {
  if (!connections_open_) {
    return;
  }
  connections_open_ = false;
  const int n = static_cast<int>(hosts_.size());
  const int fanout = std::min(spec_.fanout, n - 1);
  for (int i = 0; i < n; ++i) {
    for (int k = 1; k <= fanout; ++k) {
      const int peer = (i + k) % n;
      policy_->OnConnectionClose(id_, hosts_[static_cast<size_t>(i)],
                                 hosts_[static_cast<size_t>(peer)], ConnectionSalt(id_, i, k));
    }
  }
}

void Application::BeginStage() {
  ++stage_;
  if (static_cast<size_t>(stage_) >= spec_.stages.size()) {
    Finish();
    return;
  }
  const StageSpec& stage = spec_.stages[static_cast<size_t>(stage_)];
  compute_done_ = false;
  outstanding_flows_ = 0;
  pending_overlap_chunks_ = 0;
  if (stage.bits_per_peer > 0 || stage.elastic_bits_per_peer > 0) {
    OpenStageConnections();
  }

  // The overlappable shuffle (and the opportunistic elastic traffic) is
  // paced across the compute window in chunks, emulating shuffle data
  // becoming available as compute produces it.
  if ((stage.overlap > 0 && stage.bits_per_peer > 0) || stage.elastic_bits_per_peer > 0) {
    const int chunks = stage.compute_seconds > 0 ? kOverlapChunks : 1;
    const double fraction =
        stage.bits_per_peer > 0 ? stage.overlap / static_cast<double>(chunks) : 0.0;
    const double elastic_fraction =
        stage.elastic_bits_per_peer > 0 ? 1.0 / static_cast<double>(chunks) : 0.0;
    for (int i = 0; i < chunks; ++i) {
      ++pending_overlap_chunks_;
      const double at = stage.compute_seconds * static_cast<double>(i) / chunks;
      const int expected_stage = stage_;
      scheduler_->ScheduleAfter(at, [this, expected_stage, fraction, elastic_fraction] {
        assert(stage_ == expected_stage && "stage advanced past a pending chunk");
        (void)expected_stage;
        StartOverlapChunk(fraction, elastic_fraction);
      });
    }
  }

  if (stage.compute_seconds > 0) {
    computing_ = true;
    scheduler_->ScheduleAfter(stage.compute_seconds, [this] { OnComputeDone(); });
  } else {
    OnComputeDone();
  }
}

void Application::StartOverlapChunk(double chunk_fraction, double elastic_fraction) {
  assert(pending_overlap_chunks_ > 0);
  --pending_overlap_chunks_;
  if (chunk_fraction > 0) {
    StartStageFlows(chunk_fraction);
  }
  if (elastic_fraction > 0) {
    StartElasticFlows(elastic_fraction);
  }
  MaybeFinishStage();
}

void Application::StartElasticFlows(double fraction) {
  const int n = static_cast<int>(hosts_.size());
  const int fanout = std::min(spec_.fanout, n - 1);
  const double bits = spec_.stages[static_cast<size_t>(stage_)].elastic_bits_per_peer *
                      fraction * static_cast<double>(spec_.fanout) / static_cast<double>(fanout);
  if (bits <= 0) {
    return;
  }
  for (int i = 0; i < n; ++i) {
    for (int k = 1; k <= fanout; ++k) {
      const int peer = (i + k) % n;
      const FlowId id = flow_sim_->StartFlow(
          id_, hosts_[static_cast<size_t>(i)], hosts_[static_cast<size_t>(peer)], bits, sl_,
          ConnectionSalt(id_, i, k),
          [this](FlowId done) { std::erase(elastic_flows_, done); }, kElasticIntraWeight);
      elastic_flows_.push_back(id);
    }
  }
}

void Application::AbandonElasticFlows() {
  for (FlowId id : elastic_flows_) {
    flow_sim_->CancelFlow(id);
  }
  elastic_flows_.clear();
}

void Application::OnComputeDone() {
  computing_ = false;
  compute_done_ = true;
  const StageSpec& stage = spec_.stages[static_cast<size_t>(stage_)];
  const double sequential_fraction = 1.0 - stage.overlap;
  if (sequential_fraction > 0 && stage.bits_per_peer > 0) {
    StartStageFlows(sequential_fraction);
  }
  MaybeFinishStage();
}

void Application::StartStageFlows(double fraction) {
  // Pick up any PL re-clustering the controller performed since the last
  // shuffle.
  const int updated_sl = policy_->ServiceLevelFor(id_);
  if (updated_sl >= 0) {
    assert(updated_sl < kNumServiceLevels);
    sl_ = updated_sl;
  }
  const int n = static_cast<int>(hosts_.size());
  const int fanout = std::min(spec_.fanout, n - 1);
  // If the instance count forces a smaller fanout, preserve the total shuffle
  // volume per instance.
  const double bits =
      spec_.stages[static_cast<size_t>(stage_)].bits_per_peer * fraction *
      static_cast<double>(spec_.fanout) / static_cast<double>(fanout);
  if (bits <= 0) {
    return;
  }
  for (int i = 0; i < n; ++i) {
    for (int k = 1; k <= fanout; ++k) {
      const int peer = (i + k) % n;
      ++outstanding_flows_;
      flow_sim_->StartFlow(id_, hosts_[static_cast<size_t>(i)], hosts_[static_cast<size_t>(peer)],
                           bits, sl_, ConnectionSalt(id_, i, k),
                           [this](FlowId) { OnStageFlowDone(); });
    }
  }
}

void Application::OnStageFlowDone() {
  assert(outstanding_flows_ > 0);
  --outstanding_flows_;
  MaybeFinishStage();
}

void Application::MaybeFinishStage() {
  if (compute_done_ && pending_overlap_chunks_ == 0 && outstanding_flows_ == 0) {
    // Stale prefetches do not cross the stage barrier, and the stage's
    // connections are released so the controller can re-allocate their ports.
    AbandonElasticFlows();
    CloseStageConnections();
    BeginStage();
  }
}

void Application::Finish() {
  finished_ = true;
  finish_time_ = scheduler_->Now();
  CloseStageConnections();
  policy_->OnAppFinish(id_);
  if (on_done_) {
    on_done_(id_, finish_time_ - start_time_);
  }
}

}  // namespace saba
