#include "src/exp/corun.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/baselines/homa_policy.h"
#include "src/baselines/pfabric_policy.h"
#include "src/baselines/sincronia_policy.h"
#include "src/core/distributed_controller.h"
#include "src/core/saba_client.h"
#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/app_runtime.h"

namespace saba {

const char* PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBaseline:
      return "baseline";
    case PolicyKind::kSaba:
      return "saba";
    case PolicyKind::kSabaDistributed:
      return "saba-distributed";
    case PolicyKind::kSabaUnlimited:
      return "saba-unlimited-queues";
    case PolicyKind::kIdealMaxMin:
      return "ideal-max-min";
    case PolicyKind::kHoma:
      return "homa";
    case PolicyKind::kSincronia:
      return "sincronia";
    case PolicyKind::kPFabric:
      return "pfabric";
  }
  return "?";
}

CoRunResult RunCoRun(const Topology& topology, const std::vector<JobSpec>& jobs,
                     const CoRunOptions& options) {
  assert(!jobs.empty());
  const bool is_saba = options.policy == PolicyKind::kSaba ||
                       options.policy == PolicyKind::kSabaDistributed ||
                       options.policy == PolicyKind::kSabaUnlimited;
  assert((!is_saba || options.table != nullptr) &&
         "Saba policies need a profiled sensitivity table");

  EventScheduler scheduler;
  Network network(topology, /*default_queues=*/1);

  // --- Allocator + congestion model per policy -----------------------------
  std::unique_ptr<BandwidthAllocator> allocator;
  std::unique_ptr<CentralizedController> controller;  // Saba variants only.

  switch (options.policy) {
    case PolicyKind::kBaseline:
      network.SetQueueCountEverywhere(1);
      network.SetCongestionModel(std::make_unique<FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<WfqMaxMinAllocator>();
      break;
    case PolicyKind::kSaba:
    case PolicyKind::kSabaDistributed:
      network.SetQueueCountEverywhere(options.queues_per_port);
      // Saba keeps the deployed congestion protocol (§5.2); its benefit at
      // this layer comes from separating applications into queues.
      network.SetCongestionModel(std::make_unique<FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<WfqMaxMinAllocator>();
      break;
    case PolicyKind::kSabaUnlimited: {
      network.SetCongestionModel(std::make_unique<FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<PerAppWfqAllocator>([&](LinkId link, AppId app) {
        const double w = controller->AppWeightAtPort(link, app);
        return w > 0 ? w : 0.01;
      });
      break;
    }
    case PolicyKind::kIdealMaxMin:
      network.SetCongestionModel(std::make_unique<IdealCongestionModel>());
      allocator = std::make_unique<PerAppWfqAllocator>();
      break;
    case PolicyKind::kHoma:
    case PolicyKind::kSincronia:
    case PolicyKind::kPFabric:
      network.SetCongestionModel(std::make_unique<IdealCongestionModel>());
      allocator = std::make_unique<StrictPriorityAllocator>();
      break;
  }

  FlowSimulator flow_sim(&scheduler, &network, allocator.get());
  flow_sim.SetCompletionQuantum(options.completion_quantum);

  // --- Policy-side machinery ------------------------------------------------
  std::unique_ptr<HomaScheduler> homa;
  std::unique_ptr<SincroniaScheduler> sincronia;
  std::unique_ptr<PFabricScheduler> pfabric;
  std::unique_ptr<AppNetworkPolicy> app_policy;

  ControllerOptions controller_options;
  controller_options.num_pls = options.num_pls;
  controller_options.relative_min_weight = options.relative_min_weight;
  controller_options.reserved_queues = options.reserved_queues;
  controller_options.reserved_queue_weight = options.reserved_queue_weight;
  controller_options.c_saba = options.c_saba;
  controller_options.seed = options.seed;

  switch (options.policy) {
    case PolicyKind::kSaba:
    case PolicyKind::kSabaUnlimited:
      controller = std::make_unique<CentralizedController>(&network, &flow_sim, options.table,
                                                           controller_options);
      app_policy = std::make_unique<SabaClient>(controller.get());
      break;
    case PolicyKind::kSabaDistributed: {
      DistributedControllerOptions dist_options;
      dist_options.base = controller_options;
      controller = std::make_unique<DistributedController>(
          &network, &flow_sim, options.table,
          MappingDatabase::Build(*options.table, options.num_pls, options.seed), dist_options);
      app_policy = std::make_unique<SabaClient>(controller.get());
      break;
    }
    case PolicyKind::kHoma: {
      HomaConfig config;
      config.num_priorities = options.queues_per_port;
      homa = std::make_unique<HomaScheduler>(&flow_sim, config);
      app_policy = std::make_unique<NullNetworkPolicy>();
      break;
    }
    case PolicyKind::kSincronia: {
      SincroniaConfig config;
      config.num_priorities = options.queues_per_port;
      sincronia = std::make_unique<SincroniaScheduler>(&flow_sim, config);
      app_policy = std::make_unique<NullNetworkPolicy>();
      break;
    }
    case PolicyKind::kPFabric:
      pfabric = std::make_unique<PFabricScheduler>(&flow_sim);
      app_policy = std::make_unique<NullNetworkPolicy>();
      break;
    case PolicyKind::kBaseline:
    case PolicyKind::kIdealMaxMin:
      app_policy = std::make_unique<NullNetworkPolicy>();
      break;
  }

  // --- Jobs ------------------------------------------------------------------
  CoRunResult result;
  result.completion_seconds.assign(jobs.size(), -1);

  std::vector<std::unique_ptr<Application>> apps;
  apps.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    apps.push_back(std::make_unique<Application>(&scheduler, &flow_sim, jobs[j].spec,
                                                 jobs[j].hosts, static_cast<AppId>(j),
                                                 app_policy.get()));
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    Application* app = apps[j].get();
    scheduler.ScheduleAt(jobs[j].start_at, [app, &result, j] {
      app->Start([&result, j](AppId, SimTime completion) {
        result.completion_seconds[j] = completion;
      });
    });
  }

  // --- Failure schedule -----------------------------------------------------
  Topology& live_topo = network.topology();
  for (const FailureEvent& event : options.failures) {
    assert(event.a >= 0 && static_cast<size_t>(event.a) < live_topo.num_nodes());
    switch (event.kind) {
      case FailureEvent::Kind::kLinkDown: {
        const LinkId forward = live_topo.FindLink(event.a, event.b);
        const LinkId reverse = live_topo.FindLink(event.b, event.a);
        assert(forward != kInvalidLink && reverse != kInvalidLink);
        scheduler.ScheduleAt(event.at, [&live_topo, &flow_sim, forward, reverse] {
          live_topo.SetLinkUp(forward, false);
          live_topo.SetLinkUp(reverse, false);
          flow_sim.HandleTopologyChange();
        });
        if (event.until >= 0) {
          scheduler.ScheduleAt(event.until, [&live_topo, &flow_sim, forward, reverse] {
            live_topo.SetLinkUp(forward, true);
            live_topo.SetLinkUp(reverse, true);
            flow_sim.HandleTopologyChange();
          });
        }
        break;
      }
      case FailureEvent::Kind::kNodeDown: {
        const NodeId node = event.a;
        assert(IsSwitch(live_topo.node(node).kind) && "only switches fail; hosts run jobs");
        scheduler.ScheduleAt(event.at, [&live_topo, &flow_sim, node] {
          live_topo.SetNodeUp(node, false);
          flow_sim.HandleTopologyChange();
        });
        if (event.until >= 0) {
          scheduler.ScheduleAt(event.until, [&live_topo, &flow_sim, node] {
            live_topo.SetNodeUp(node, true);
            flow_sim.HandleTopologyChange();
          });
        }
        break;
      }
      case FailureEvent::Kind::kLinkDegrade: {
        assert(event.capacity_factor > 0 && event.capacity_factor <= 1.0);
        const LinkId forward = live_topo.FindLink(event.a, event.b);
        const LinkId reverse = live_topo.FindLink(event.b, event.a);
        assert(forward != kInvalidLink && reverse != kInvalidLink);
        // Originals are captured at apply time (not schedule time) and handed
        // to the restore lambda, so back-to-back degrades restore exactly.
        auto originals = std::make_shared<std::pair<Bps64, Bps64>>();
        const double factor = event.capacity_factor;
        scheduler.ScheduleAt(event.at, [&live_topo, &flow_sim, forward, reverse, factor,
                                        originals] {
          originals->first = live_topo.link(forward).capacity_bps;
          originals->second = live_topo.link(reverse).capacity_bps;
          live_topo.SetLinkCapacity(forward, RoundBps(BpsToDouble(originals->first) * factor));
          live_topo.SetLinkCapacity(reverse, RoundBps(BpsToDouble(originals->second) * factor));
          flow_sim.NotifyLinkChanged(forward);
          flow_sim.NotifyLinkChanged(reverse);
        });
        if (event.until >= 0) {
          scheduler.ScheduleAt(event.until, [&live_topo, &flow_sim, forward, reverse, originals] {
            live_topo.SetLinkCapacity(forward, originals->first);
            live_topo.SetLinkCapacity(reverse, originals->second);
            flow_sim.NotifyLinkChanged(forward);
            flow_sim.NotifyLinkChanged(reverse);
          });
        }
        break;
      }
    }
  }

  scheduler.Run();

  for (double t : result.completion_seconds) {
    assert(t > 0 && "all jobs must complete");
    (void)t;
  }
  if (controller != nullptr) {
    result.controller_stats = controller->stats();
  }
  result.allocator_runs = flow_sim.allocator_runs();
  result.engine_stats = flow_sim.engine_stats();
  result.rerouted_flows = flow_sim.rerouted_flow_count();
  result.makespan = scheduler.Now();
  return result;
}

std::vector<double> Speedups(const CoRunResult& reference, const CoRunResult& test) {
  assert(reference.completion_seconds.size() == test.completion_seconds.size());
  std::vector<double> speedups(reference.completion_seconds.size());
  for (size_t i = 0; i < speedups.size(); ++i) {
    speedups[i] = reference.completion_seconds[i] / test.completion_seconds[i];
  }
  return speedups;
}

}  // namespace saba
