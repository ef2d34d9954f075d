#include "perfbench/src/corun_cells.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/baselines/homa_policy.h"
#include "src/baselines/sincronia_policy.h"
#include "src/core/controller.h"
#include "src/core/saba_client.h"
#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/net/routing.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/app_runtime.h"

namespace perfbench {
namespace {

using saba::AppId;
using saba::NodeId;

// Times every call into the wrapped policy and records each connection's
// routing triple for the router replay.
class TimedPolicy : public saba::AppNetworkPolicy {
 public:
  TimedPolicy(saba::AppNetworkPolicy* inner, std::vector<saba::RouteKey>* opened)
      : inner_(inner), opened_(opened) {}

  int OnAppStart(AppId app, const std::string& workload_name,
                 const std::vector<NodeId>& hosts) override {
    Span span(&seconds_);
    return inner_->OnAppStart(app, workload_name, hosts);
  }
  void OnConnectionOpen(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override {
    opened_->push_back({src, dst, path_salt});
    Span span(&seconds_);
    inner_->OnConnectionOpen(app, src, dst, path_salt);
  }
  void OnConnectionClose(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override {
    Span span(&seconds_);
    inner_->OnConnectionClose(app, src, dst, path_salt);
  }
  void OnAppFinish(AppId app) override {
    Span span(&seconds_);
    inner_->OnAppFinish(app);
  }
  int ServiceLevelFor(AppId app) const override {
    Span span(&seconds_);
    return inner_->ServiceLevelFor(app);
  }

  double seconds() const { return seconds_; }

 private:
  saba::AppNetworkPolicy* inner_;
  std::vector<saba::RouteKey>* opened_;
  mutable double seconds_ = 0;
};

// The body of saba::RunCoRun for the policies the benchmark runs (no failure
// schedule), with the scheduler loop opened up and traced. Keep in step with
// src/exp/corun.cc: the digest comparison against RunCoRun catches drift.
void RunTracedCellBody(const saba::Topology& topology, const std::vector<saba::JobSpec>& jobs,
                       const saba::CoRunOptions& options, CellRun* run) {
  using saba::PolicyKind;
  saba::EventScheduler scheduler;
  saba::Network network(topology, /*default_queues=*/1);

  std::unique_ptr<saba::BandwidthAllocator> allocator;
  switch (options.policy) {
    case PolicyKind::kBaseline:
      network.SetQueueCountEverywhere(1);
      network.SetCongestionModel(std::make_unique<saba::FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<saba::WfqMaxMinAllocator>();
      break;
    case PolicyKind::kSaba:
      network.SetQueueCountEverywhere(options.queues_per_port);
      network.SetCongestionModel(std::make_unique<saba::FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<saba::WfqMaxMinAllocator>();
      break;
    case PolicyKind::kIdealMaxMin:
      network.SetCongestionModel(std::make_unique<saba::IdealCongestionModel>());
      allocator = std::make_unique<saba::PerAppWfqAllocator>();
      break;
    case PolicyKind::kHoma:
    case PolicyKind::kSincronia:
      network.SetCongestionModel(std::make_unique<saba::IdealCongestionModel>());
      allocator = std::make_unique<saba::StrictPriorityAllocator>();
      break;
    default:
      std::fprintf(stderr, "perfbench: policy %s is not composed here\n",
                   saba::PolicyName(options.policy));
      std::exit(1);
  }

  saba::FlowSimulator flow_sim(&scheduler, &network, allocator.get());
  flow_sim.SetCompletionQuantum(options.completion_quantum);
  flow_sim.SetSolveJobs(options.solve_jobs);

  saba::ControllerOptions controller_options;
  controller_options.num_pls = options.num_pls;
  controller_options.relative_min_weight = options.relative_min_weight;
  controller_options.reserved_queues = options.reserved_queues;
  controller_options.reserved_queue_weight = options.reserved_queue_weight;
  controller_options.c_saba = options.c_saba;
  controller_options.seed = options.seed;

  std::unique_ptr<saba::CentralizedController> controller;
  std::unique_ptr<saba::HomaScheduler> homa;
  std::unique_ptr<saba::SincroniaScheduler> sincronia;
  std::unique_ptr<saba::AppNetworkPolicy> app_policy;
  switch (options.policy) {
    case PolicyKind::kSaba:
      controller = std::make_unique<saba::CentralizedController>(&network, &flow_sim,
                                                                 options.table, controller_options);
      app_policy = std::make_unique<saba::SabaClient>(controller.get());
      break;
    case PolicyKind::kHoma: {
      saba::HomaConfig config;
      config.num_priorities = options.queues_per_port;
      homa = std::make_unique<saba::HomaScheduler>(&flow_sim, config);
      app_policy = std::make_unique<saba::NullNetworkPolicy>();
      break;
    }
    case PolicyKind::kSincronia: {
      saba::SincroniaConfig config;
      config.num_priorities = options.queues_per_port;
      sincronia = std::make_unique<saba::SincroniaScheduler>(&flow_sim, config);
      app_policy = std::make_unique<saba::NullNetworkPolicy>();
      break;
    }
    default:
      app_policy = std::make_unique<saba::NullNetworkPolicy>();
      break;
  }

  TimedPolicy timed(app_policy.get(), &run->opened);

  saba::CoRunResult& result = run->result;
  result.completion_seconds.assign(jobs.size(), -1);
  std::vector<std::unique_ptr<saba::Application>> apps;
  apps.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    apps.push_back(std::make_unique<saba::Application>(&scheduler, &flow_sim, jobs[j].spec,
                                                       jobs[j].hosts, static_cast<AppId>(j),
                                                       &timed));
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    saba::Application* app = apps[j].get();
    scheduler.ScheduleAt(jobs[j].start_at, [app, &result, j] {
      app->Start([&result, j](AppId, saba::SimTime completion) {
        result.completion_seconds[j] = completion;
      });
    });
  }

  CellTrace& trace = run->trace;
  while (true) {
    const uint64_t reallocs = flow_sim.allocator_runs();
    const uint64_t completed = flow_sim.completed_flow_count();
    const FlushMark flush = FlushMarkOf(controller.get());
    const double rpc_before = timed.seconds();
    const Clock::time_point a = Clock::now();
    if (!scheduler.Step()) {
      break;
    }
    const Clock::time_point b = Clock::now();
    const double rpc = timed.seconds() - rpc_before;
    const double self = SecondsBetween(a, b) - rpc;
    trace.rpc_s += rpc;
    if (flow_sim.allocator_runs() != reallocs) {
      trace.realloc_s += self;
      ++trace.realloc_steps;
    } else if (flow_sim.completed_flow_count() != completed) {
      trace.completion_s += self;
      ++trace.completion_ticks;
    } else if (FlushMarkOf(controller.get()) != flush) {
      trace.flush_s += self;
    } else {
      trace.stage_s += self;
    }
  }

  run->complete = true;
  for (const double t : result.completion_seconds) {
    run->complete = run->complete && t > 0;
  }
  if (controller != nullptr) {
    result.controller_stats = controller->stats();
  }
  result.allocator_runs = flow_sim.allocator_runs();
  result.engine_stats = flow_sim.engine_stats();
  result.rerouted_flows = flow_sim.rerouted_flow_count();
  result.makespan = scheduler.Now();
  run->events = scheduler.dispatched_count();
}

}  // namespace

uint64_t OutcomeDigest(const saba::CoRunResult& result) {
  Digest d;
  d.Add(static_cast<uint64_t>(result.completion_seconds.size()));
  for (const double t : result.completion_seconds) {
    d.Add(t);
  }
  d.Add(result.makespan);
  d.Add(result.allocator_runs);
  d.Add(result.rerouted_flows);
  const saba::AllocationEngineStats& e = result.engine_stats;
  for (const uint64_t v : {e.recomputes, e.full_recomputes, e.components_solved, e.flows_rerated,
                           e.flows_frozen}) {
    d.Add(v);
  }
  const saba::ControllerStats& c = result.controller_stats;
  for (const uint64_t v : {c.registrations, c.deregistrations, c.conn_creates, c.conn_destroys,
                           c.port_reconfigurations, c.pl_reclusterings, c.eq2_cache_hits,
                           c.eq2_cache_misses}) {
    d.Add(v);
  }
  return d.value();
}

CellRun RunUntracedCell(const saba::Topology& topology, const std::vector<saba::JobSpec>& jobs,
                        const saba::CoRunOptions& options) {
  CellRun run;
  const Clock::time_point t0 = Clock::now();
  run.result = saba::RunCoRun(topology, jobs, options);
  run.wall_s = SecondsSince(t0);
  run.complete = true;  // RunCoRun asserts that every job completed.
  run.digest = OutcomeDigest(run.result);
  return run;
}

CellRun RunTracedCell(const saba::Topology& topology, const std::vector<saba::JobSpec>& jobs,
                      const saba::CoRunOptions& options) {
  CellRun run;
  const Clock::time_point t0 = Clock::now();
  RunTracedCellBody(topology, jobs, options, &run);
  run.wall_s = SecondsSince(t0);
  run.trace.wall_s = run.wall_s;
  run.trace.router = ReplayRoutes(topology, run.opened);
  run.digest = OutcomeDigest(run.result);
  return run;
}

}  // namespace perfbench
