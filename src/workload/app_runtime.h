// Runtime execution of a workload on the simulated fabric.
//
// An Application is one distributed job: `hosts.size()` instances running the
// same WorkloadSpec in bulk-synchronous stages. The overlappable part of a
// stage's shuffle is *paced*: it is emitted in chunks spread across the
// compute phase, the way frameworks pipeline shuffle data as compute
// produces it (this is what keeps PR-like workloads on the network almost
// continuously in the paper's Fig 2b). The sequential remainder ships as one
// burst when compute ends; the stage barrier falls when compute and all
// stage flows have finished on every instance.
//
// Network-policy integration happens through AppNetworkPolicy: a Saba
// deployment plugs in the Saba client library (register -> service level,
// connection notifications -> controller reallocation); the baseline plugs in
// a null policy that leaves everything in queue 0.

#ifndef SRC_WORKLOAD_APP_RUNTIME_H_
#define SRC_WORKLOAD_APP_RUNTIME_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/flow_simulator.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/workload_spec.h"

namespace saba {

// How an application tags and announces its traffic. Mirrors the Saba
// library's software interface (paper Fig 7): registration yields the
// service level; connection open/close notifications drive controller
// re-allocation. Implementations: Saba's client library, the null baseline
// policy, and the per-app-queue policy used by ideal max-min.
class AppNetworkPolicy {
 public:
  virtual ~AppNetworkPolicy() = default;

  // Called once at application start; returns the SL its flows must carry.
  virtual int OnAppStart(AppId app, const std::string& workload_name,
                         const std::vector<NodeId>& hosts) = 0;

  // A connection (src -> dst, pinned to the path selected by `path_salt`)
  // opened or closed. Default: ignore.
  virtual void OnConnectionOpen(AppId app, NodeId src, NodeId dst, uint64_t path_salt);
  virtual void OnConnectionClose(AppId app, NodeId src, NodeId dst, uint64_t path_salt);

  // Called when the application deregisters.
  virtual void OnAppFinish(AppId app);

  // Current service level for the application's new flows, or -1 for "keep
  // the value OnAppStart returned". Saba's controller may re-cluster PLs
  // while a job runs; the application queries this before each shuffle so new
  // flows pick up the latest assignment (in-flight flows are retagged by the
  // controller through the flow simulator).
  virtual int ServiceLevelFor(AppId app) const;
};

// Policy for non-Saba runs: every flow uses SL 0 and nobody is notified.
class NullNetworkPolicy : public AppNetworkPolicy {
 public:
  int OnAppStart(AppId, const std::string&, const std::vector<NodeId>&) override { return 0; }
};

class Application {
 public:
  using DoneCallback = std::function<void(AppId, SimTime completion_seconds)>;

  // `hosts` lists the nodes running instances (>= 2, distinct). All pointers
  // must outlive the application.
  Application(EventScheduler* scheduler, FlowSimulator* flow_sim, WorkloadSpec spec,
              std::vector<NodeId> hosts, AppId id, AppNetworkPolicy* policy);

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  // Begins execution at the current simulated time. `on_done` receives the
  // job completion time (finish - start), the paper's performance metric.
  void Start(DoneCallback on_done);

  bool finished() const { return finished_; }
  // Completion time so far (finish - start); only valid once finished.
  SimTime CompletionSeconds() const;

  // True while instances are in the compute phase of the current stage
  // (drives the CPU-utilization traces of Fig 2).
  bool IsComputing() const { return started_ && !finished_ && computing_; }

 private:
  void BeginStage();
  void OpenStageConnections();
  void CloseStageConnections();
  void StartOverlapChunk(double chunk_fraction, double elastic_fraction);
  void OnComputeDone();
  void OnStageFlowDone();
  void MaybeFinishStage();
  void StartStageFlows(double fraction);
  void StartElasticFlows(double fraction);
  void AbandonElasticFlows();
  void Finish();

  EventScheduler* scheduler_;
  FlowSimulator* flow_sim_;
  WorkloadSpec spec_;
  std::vector<NodeId> hosts_;
  AppId id_;
  AppNetworkPolicy* policy_;
  DoneCallback on_done_;

  int sl_ = 0;
  int stage_ = -1;
  bool started_ = false;
  bool finished_ = false;
  bool computing_ = false;
  bool compute_done_ = false;
  int outstanding_flows_ = 0;
  int pending_overlap_chunks_ = 0;
  bool connections_open_ = false;
  // In-flight non-critical flows; cancelled at the stage barrier.
  std::vector<FlowId> elastic_flows_;
  SimTime start_time_ = 0;
  SimTime finish_time_ = 0;
};

}  // namespace saba

#endif  // SRC_WORKLOAD_APP_RUNTIME_H_
