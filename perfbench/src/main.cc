// The repository's end-to-end benchmark program (see perfbench/README.md).
//
//   perfbench --workload <star-testbed|spine-leaf-policies|controller-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload up from the seed (several times, for a steady set-up
// time), runs a reference pass that also warms caches, then repeats passes
// for --seconds of host time. With --trace 0 every pass is untraced and the
// end-to-end metrics are reported; with --trace 1 untraced and traced passes
// alternate and the per-layer metrics are reported. An untraced co-run pass
// runs every cell through saba::RunCoRun. Every execution of every cell is
// checked against the cell's reference digest. Every pass does the same
// deterministic work, which the digests check, and on a shared host noise
// only adds time, so each end-to-end timing comes from its fastest pass.
// The last stdout line is one JSON object; run.py checks the digests against the pinned ones and
// prints the benchmark's result line. Progress and notes go to stderr.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/sim_cluster.h"
#include "perfbench/src/churn.h"
#include "perfbench/src/common.h"
#include "perfbench/src/corun_cells.h"
#include "src/core/profiler.h"
#include "src/exp/cluster_setup.h"
#include "src/exp/knobs.h"
#include "src/net/units.h"
#include "src/sim/rng.h"
#include "src/workload/workload_catalog.h"

namespace perfbench {
namespace {

// --- Workload sizes ----------------------------------------------------------
// Chosen so one pass takes a few host seconds on a shared 4-core x86 VM and a
// run holds several passes. Changing any of them changes every pinned digest.
constexpr int kStarSetups = 4;           // 16-job cluster setups per pass.
constexpr int kSpineInstances = 6;       // Instances per synthetic workload (fig10: 97).
constexpr size_t kChurnFlows = 12000;    // Live connections at steady state.
constexpr int kChurnEvents = 120;        // Steady-state replacements per universe.

// Set-ups per run: at least this many, and for at least this long, so the
// millisecond churn set-up still gets a steady median.
constexpr int kMinSetups = 9;
constexpr double kMinSetupSeconds = 1.5;

// The co-run workloads fix what their jobs are (which workloads, dataset
// scales, instance counts, placement) from this stream, and draw from --seed
// only what leaves the amount of work alone: start times, profiling noise
// and the controller's K-means seed. Host cost per 16-job setup is
// heavy-tailed across fully random setups (1.4 to 11.3 s over 24 seeds),
// which no affordable number of passes averages out.
constexpr uint64_t kCompositionSeed = 1;

const char* const kCoRunPolicies[] = {"baseline", "saba", "ideal-max-min", "homa", "sincronia"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <star-testbed|spine-leaf-policies|"
               "controller-churn> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      Usage("missing value");
    }
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const std::optional<int64_t> number = saba::ParseInt64(value);
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed" && number && *number >= 0) {
      args.seed = static_cast<uint64_t>(*number);
      have[1] = true;
    } else if (flag == "--seconds" && number && *number >= 1) {
      args.seconds = static_cast<double>(*number);
      have[2] = true;
    } else if (flag == "--trace" && number && (*number == 0 || *number == 1)) {
      args.trace = *number == 1;
      have[3] = true;
    } else {
      Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    Usage("all four arguments are required");
  }
  return args;
}

// Every execution of every cell, checked against the cell's first (reference)
// execution.
class Outcomes {
 public:
  void Record(const std::string& cell, uint64_t digest, bool complete) {
    ++attempted_;
    ++runs_[cell];
    const uint64_t reference = reference_.emplace(cell, digest).first->second;
    if (!complete || reference != digest) {
      ++failed_;
      std::fprintf(stderr, "perfbench: cell %s %s (digest %s, reference %s)\n", cell.c_str(),
                   complete ? "diverged" : "left jobs unfinished", Hex(digest).c_str(),
                   Hex(reference).c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, uint64_t>& reference() const { return reference_; }
  const std::map<std::string, uint64_t>& runs() const { return runs_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> reference_;
  std::map<std::string, uint64_t> runs_;
};

// Loop control shared by both workload kinds: at least `min` passes of each
// kind, alternating untraced and traced when tracing, until time is up.
class PassPlan {
 public:
  explicit PassPlan(const Args& args) : args_(args), start_(Clock::now()) {}
  bool NextIsTraced() const { return args_.trace && traced_ < untraced_; }
  void Done(bool traced) { ++(traced ? traced_ : untraced_); }
  bool Finished() const {
    const int min = args_.trace ? 2 : 3;
    return SecondsSince(start_) >= args_.seconds && untraced_ >= min &&
           (!args_.trace || traced_ >= min);
  }

 private:
  const Args& args_;
  Clock::time_point start_;
  int untraced_ = 0;
  int traced_ = 0;
};

// Runs `build` at least kMinSetups times and for at least kMinSetupSeconds;
// returns the median host seconds of one set-up.
template <typename Build>
double TimeSetups(const Build& build) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < static_cast<size_t>(kMinSetups) || total < kMinSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    build();
    times.push_back(SecondsSince(t0));
    total += times.back();
  }
  return Median(times);
}

// Element-wise median of per-pass metric tables that list the same names in
// the same order (counts repeat exactly across passes, so stay exact).
MetricTable MedianTable(const std::vector<MetricTable>& passes) {
  MetricTable out;
  if (passes.empty()) {
    return out;
  }
  const std::vector<Metric>& first = passes.front().metrics();
  for (size_t i = 0; i < first.size(); ++i) {
    std::vector<double> values;
    for (const MetricTable& pass : passes) {
      values.push_back(pass.metrics()[i].value);
    }
    if (first[i].exact) {
      out.AddCount(first[i].name, static_cast<uint64_t>(Median(values)));
    } else {
      out.Add(first[i].name, Median(values), first[i].unit);
    }
  }
  return out;
}

double Ratio(uint64_t part, uint64_t base) {
  return base == 0 ? 0 : static_cast<double>(part) / static_cast<double>(base);
}

// --- Co-run workloads ----------------------------------------------------------

struct CoRunWorkload {
  saba::Topology topology;
  saba::SensitivityTable table;
  std::vector<std::vector<saba::JobSpec>> job_sets;
  // Each job set cut to its jobs' first stage: admission of every job and
  // its first shuffle on an empty fabric (the co-run ramp).
  std::vector<std::vector<saba::JobSpec>> ramp_sets;
  std::vector<CoRunCell> cells;
};

void AddRampSets(CoRunWorkload* w) {
  w->ramp_sets = w->job_sets;
  for (std::vector<saba::JobSpec>& jobs : w->ramp_sets) {
    for (saba::JobSpec& job : jobs) {
      job.spec.stages.resize(1);
    }
  }
}

saba::CoRunOptions CellOptions(saba::PolicyKind policy, const CoRunWorkload& w) {
  saba::CoRunOptions options;
  options.policy = policy;
  options.table = &w.table;
  options.solve_jobs = 1;
  return options;
}

// The Fig 8 testbed: 32 x 56 Gb/s hosts on one switch, HiBench catalog
// profiled on 8 nodes, randomized 16-job setups under baseline and Saba
// (bench_fig8_testbed's cells). The setups come from the composition stream;
// --seed re-draws every job's start time within the same jitter window.
void BuildStarTestbed(uint64_t seed, CoRunWorkload* w) {
  saba::ProfilerOptions profiler;
  profiler.polynomial_degree = 3;
  profiler.seed = seed;
  w->table = saba::OfflineProfiler(profiler).ProfileAll(saba::HiBenchCatalog());
  w->topology = saba::BuildSingleSwitchStar(32, saba::Gbps64(56));
  saba::Rng composition(kCompositionSeed);
  saba::Rng timing(seed);
  const saba::ClusterSetupOptions setup_options;
  w->job_sets.clear();
  w->cells.clear();
  for (int s = 0; s < kStarSetups; ++s) {
    w->job_sets.push_back(
        saba::GenerateClusterSetup(saba::HiBenchCatalog(), setup_options, &composition));
    for (saba::JobSpec& job : w->job_sets.back()) {
      job.start_at = timing.Uniform(0, setup_options.start_jitter_seconds);
    }
    const size_t set = w->job_sets.size() - 1;
    w->cells.push_back({"baseline", set, CellOptions(saba::PolicyKind::kBaseline, *w)});
    saba::CoRunOptions saba_options = CellOptions(saba::PolicyKind::kSaba, *w);
    saba_options.seed = seed + static_cast<uint64_t>(s);
    w->cells.push_back({"saba", set, saba_options});
  }
  AddRampSets(w);
}

// The Fig 10 simulation at reduced instances: bench/sim_cluster.h's
// BuildSimCluster on the 1,944-server spine-leaf fabric, then every Fig 10
// policy on the one job set. The cluster (workloads, profile, placement) comes
// from the composition stream; --seed re-draws the start times within
// BuildSimCluster's window and seeds the controller.
void BuildSpineLeafPolicies(uint64_t seed, CoRunWorkload* w) {
  saba::SimClusterConfig config;
  config.instances_per_workload = kSpineInstances;
  config.seed = kCompositionSeed;
  saba::SimCluster cluster = saba::BuildSimCluster(config);
  saba::Rng timing(seed);
  for (saba::JobSpec& job : cluster.jobs) {
    job.start_at = timing.Uniform(0, 5.0);
  }
  w->topology = std::move(cluster.topology);
  w->table = std::move(cluster.table);
  w->job_sets = {std::move(cluster.jobs)};
  w->cells.clear();
  const saba::PolicyKind policies[] = {saba::PolicyKind::kBaseline, saba::PolicyKind::kSaba,
                                       saba::PolicyKind::kIdealMaxMin, saba::PolicyKind::kHoma,
                                       saba::PolicyKind::kSincronia};
  for (const saba::PolicyKind policy : policies) {
    saba::CoRunOptions options = CellOptions(policy, *w);
    options.num_pls = 16;     // All 16 InfiniBand SLs (§8.1), as fig10 runs.
    options.fecn_gamma = 0.15;
    options.seed = seed;
    w->cells.push_back({saba::PolicyName(policy), 0, options});
  }
  AddRampSets(w);
}

std::string CellName(const CoRunCell& cell) {
  return cell.policy + "/" + std::to_string(cell.job_set);
}

// Sums of one traced pass over the cells of one policy.
struct PolicyTotals {
  CellTrace trace;
  saba::AllocationEngineStats engine;
  saba::ControllerStats controller;
  uint64_t events = 0;
};

void Accumulate(const CellRun& run, PolicyTotals* t) {
  const CellTrace& c = run.trace;
  t->trace.wall_s += c.wall_s;
  t->trace.realloc_s += c.realloc_s;
  t->trace.completion_s += c.completion_s;
  t->trace.flush_s += c.flush_s;
  t->trace.rpc_s += c.rpc_s;
  t->trace.stage_s += c.stage_s;
  t->trace.realloc_steps += c.realloc_steps;
  t->trace.completion_ticks += c.completion_ticks;
  t->trace.router.resolve_s += c.router.resolve_s;
  t->trace.router.routes += c.router.routes;
  t->trace.router.rss_mb += c.router.rss_mb;
  const saba::AllocationEngineStats& e = run.result.engine_stats;
  t->engine.components_solved += e.components_solved;
  t->engine.flows_rerated += e.flows_rerated;
  t->engine.flows_frozen += e.flows_frozen;
  t->engine.full_recomputes += e.full_recomputes;
  const saba::ControllerStats& k = run.result.controller_stats;
  t->controller.port_reconfigurations += k.port_reconfigurations;
  t->controller.eq2_cache_hits += k.eq2_cache_hits;
  t->controller.eq2_cache_misses += k.eq2_cache_misses;
  t->events += run.events;
}

// One traced pass's per-layer table. Every workload emits every name; a
// policy or universe the workload does not run reports zeros.
MetricTable LayerTable(const std::map<std::string, PolicyTotals>& by_policy,
                       const ChurnRun* churn) {
  MetricTable m;
  for (const char* policy : kCoRunPolicies) {
    const auto it = by_policy.find(policy);
    const PolicyTotals t = it == by_policy.end() ? PolicyTotals{} : it->second;
    const std::string p = std::string(".") + policy;
    const bool has_controller = std::string(policy) == "saba";
    const uint64_t frozen_base = t.engine.flows_rerated + t.engine.flows_frozen;
    m.Add("net.flowsim.realloc_s" + p, t.trace.realloc_s, "s");
    m.AddCount("net.flowsim.reallocs" + p, t.trace.realloc_steps);
    m.AddCount("net.engine.components_solved" + p, t.engine.components_solved);
    m.AddCount("net.engine.flows_rerated" + p, t.engine.flows_rerated);
    m.AddCount("net.engine.full_recomputes" + p, t.engine.full_recomputes);
    m.Add("net.engine.frozen_ratio" + p, Ratio(t.engine.flows_frozen, frozen_base), "ratio");
    m.AddCount("net.engine.frozen_ratio_base" + p, frozen_base);
    m.Add("net.flowsim.completion_s" + p, t.trace.completion_s, "s");
    m.AddCount("net.flowsim.completion_ticks" + p, t.trace.completion_ticks);
    m.Add("net.router.resolve_s" + p, t.trace.router.resolve_s, "s");
    m.AddCount("net.router.routes" + p, t.trace.router.routes);
    m.Add("net.router.rss_mb" + p, t.trace.router.rss_mb, "MB");
    // Without a controller the policy calls are application bookkeeping.
    m.Add("workload.stage_s" + p, t.trace.stage_s + (has_controller ? 0 : t.trace.rpc_s), "s");
    if (has_controller) {
      const uint64_t lookups = t.controller.eq2_cache_hits + t.controller.eq2_cache_misses;
      m.Add("core.controller.flush_s" + p, t.trace.flush_s, "s");
      m.Add("core.controller.rpc_s" + p, t.trace.rpc_s, "s");
      m.AddCount("core.controller.port_reconfigs" + p, t.controller.port_reconfigurations);
      m.Add("core.controller.eq2_hit_ratio" + p, Ratio(t.controller.eq2_cache_hits, lookups),
            "ratio");
      m.AddCount("core.controller.eq2_hit_ratio_base" + p, lookups);
    }
    m.AddCount("sim.events" + p, t.events);
    m.Add("trace.wall_s" + p, t.trace.wall_s, "s");
    m.Add("trace.remainder_s" + p, t.trace.remainder(), "s");
  }
  const ChurnRun c = churn == nullptr ? ChurnRun{} : *churn;
  const uint64_t lookups = c.eq2_hits + c.eq2_misses;
  m.Add("net.flowsim.realloc_s.churn", c.trace.realloc_s, "s");
  m.AddCount("net.flowsim.reallocs.churn", c.trace.realloc_steps);
  m.Add("net.router.resolve_s.churn", c.trace.router.resolve_s, "s");
  m.AddCount("net.router.routes.churn", c.trace.router.routes);
  m.Add("net.router.rss_mb.churn", c.trace.router.rss_mb, "MB");
  m.Add("core.controller.flush_s.churn", c.trace.flush_s, "s");
  m.Add("core.controller.rpc_s.churn", c.trace.rpc_s, "s");
  m.AddCount("core.controller.port_reconfigs.churn", c.port_reconfigurations);
  m.Add("core.controller.eq2_hit_ratio.churn", Ratio(c.eq2_hits, lookups), "ratio");
  m.AddCount("core.controller.eq2_hit_ratio_base.churn", lookups);
  m.AddCount("sim.events.churn", c.events);
  m.Add("trace.wall_s.churn", c.trace.wall_s, "s");
  m.Add("trace.remainder_s.churn", c.trace.remainder(), "s");
  return m;
}

// Workload-level trace metrics, appended after the per-layer medians.
void AddTraceSummary(const std::vector<double>& untraced_walls,
                     const std::vector<double>& traced_walls, size_t flush_samples,
                     MetricTable* m) {
  const double untraced = Min(untraced_walls);
  const double traced = Min(traced_walls);
  m->Add("trace.untraced_wall_s", untraced, "s");
  m->Add("trace.traced_wall_s", traced, "s");
  m->Add("trace.overhead_s", traced - untraced, "s");
  m->AddCount("flush_ms.samples", flush_samples);
}

void AddEndToEnd(double wall, double setup, double critical, double ramp, double flush_p50,
                 double flush_p90, MetricTable* m) {
  m->Add("wall_s", wall, "s");
  m->Add("setup_s", setup, "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  m->Add("critical_cell_s", critical, "s");
  m->Add("ramp_s", ramp, "s");
  m->Add("flush_ms_p50", flush_p50, "ms");
  m->Add("flush_ms_p90", flush_p90, "ms");
}

std::string RampName(const CoRunCell& cell) { return CellName(cell) + "/ramp"; }

size_t PolicyCount(const std::vector<CoRunCell>& cells) {
  std::set<std::string> policies;
  for (const CoRunCell& cell : cells) {
    policies.insert(cell.policy);
  }
  return policies.size();
}

void RunCoRunWorkload(const Args& args, void (*build)(uint64_t, CoRunWorkload*),
                      Outcomes* outcomes, MetricTable* metrics) {
  auto w = std::make_unique<CoRunWorkload>();
  const double setup_s = TimeSetups([&] { build(args.seed, w.get()); });

  // Reference pass: pins each cell's and ramp cell's digest, warms caches.
  std::vector<uint64_t> reallocs;  // Per cell; deterministic, so digest-checked.
  for (const CoRunCell& cell : w->cells) {
    const CellRun ref = RunUntracedCell(w->topology, w->job_sets[cell.job_set], cell.options);
    outcomes->Record(CellName(cell), ref.digest, ref.complete);
    reallocs.push_back(ref.result.allocator_runs);
    const CellRun ramp = RunUntracedCell(w->topology, w->ramp_sets[cell.job_set], cell.options);
    outcomes->Record(RampName(cell), ramp.digest, ramp.complete);
    std::fprintf(stderr, "[perfbench] reference %-16s %.3f s (ramp %.3f s)  makespan %.0f  "
                 "digest %s\n", CellName(cell).c_str(), ref.wall_s, ramp.wall_s,
                 ref.result.makespan, Hex(ref.digest).c_str());
  }

  // Untraced passes time every cell through RunCoRun; with --trace 0 each
  // cell's ramp cell too.
  std::vector<double> pass_walls, traced_walls;
  std::vector<std::vector<double>> cell_walls(w->cells.size());
  std::vector<std::vector<double>> cell_ramps(w->cells.size());
  std::vector<MetricTable> layer_passes;
  PassPlan plan(args);
  while (!plan.Finished()) {
    const bool traced = plan.NextIsTraced();
    double pass_wall = 0;
    std::map<std::string, PolicyTotals> by_policy;
    for (size_t i = 0; i < w->cells.size(); ++i) {
      const CoRunCell& cell = w->cells[i];
      const std::vector<saba::JobSpec>& jobs = w->job_sets[cell.job_set];
      const CellRun run = traced ? RunTracedCell(w->topology, jobs, cell.options)
                                 : RunUntracedCell(w->topology, jobs, cell.options);
      outcomes->Record(CellName(cell), run.digest, run.complete);
      pass_wall += run.wall_s;
      if (traced) {
        Accumulate(run, &by_policy[cell.policy]);
        continue;
      }
      cell_walls[i].push_back(run.wall_s);
      if (!args.trace) {
        const CellRun ramp =
            RunUntracedCell(w->topology, w->ramp_sets[cell.job_set], cell.options);
        outcomes->Record(RampName(cell), ramp.digest, ramp.complete);
        cell_ramps[i].push_back(ramp.wall_s);
      }
    }
    if (traced) {
      traced_walls.push_back(pass_wall);
      layer_passes.push_back(LayerTable(by_policy, nullptr));
    } else {
      pass_walls.push_back(pass_wall);
    }
    std::fprintf(stderr, "[perfbench] %s pass %.3f s\n", traced ? "traced" : "untraced",
                 pass_wall);
    plan.Done(traced);
  }

  if (args.trace) {
    *metrics = MedianTable(layer_passes);
    AddTraceSummary(pass_walls, traced_walls, PolicyCount(w->cells), metrics);
    return;
  }
  // A policy's flush sample is its host milliseconds per reallocation event
  // over all its cells: a sum of cells, as steady as wall_s, where a single
  // sub-second cell would carry its own noise.
  double critical = 0;
  double ramp = 0;
  std::map<std::string, std::pair<double, uint64_t>> policy_cost;  // Seconds, reallocations.
  for (size_t i = 0; i < w->cells.size(); ++i) {
    const double wall = Min(cell_walls[i]);
    critical = std::max(critical, wall);
    ramp += Min(cell_ramps[i]);
    policy_cost[w->cells[i].policy].first += wall;
    policy_cost[w->cells[i].policy].second += reallocs[i];
  }
  std::vector<double> event_ms;
  for (const auto& [policy, cost] : policy_cost) {
    event_ms.push_back(cost.first * 1e3 / static_cast<double>(cost.second));
  }
  AddEndToEnd(Min(pass_walls), setup_s, critical, ramp, NearestRank(event_ms, 50),
              NearestRank(event_ms, 90), metrics);
}

// --- controller-churn ----------------------------------------------------------

void RunChurnWorkload(const Args& args, Outcomes* outcomes, MetricTable* metrics) {
  ChurnConfig config;
  config.target_flows = kChurnFlows;
  config.events = kChurnEvents;
  std::unique_ptr<ChurnSetup> setup;
  const double setup_s = TimeSetups([&] {
    setup.reset();  // At most one set-up alive at a time.
    setup = std::make_unique<ChurnSetup>(BuildChurnSetup(args.seed, config));
  });
  std::fprintf(stderr, "[perfbench] churn: %zu hosts, %zu ramp jobs, %zu flows, %zu events\n",
               setup->topology.Hosts().size(), setup->schedule.ramp.size(),
               setup->schedule.concurrent_flows, setup->schedule.events.size());

  {
    const ChurnRun ref = RunChurnUniverse(*setup, /*traced=*/false);
    outcomes->Record("churn", ref.digest, true);
    std::fprintf(stderr, "[perfbench] reference universe %.3f s  digest %s\n", ref.wall_s,
                 Hex(ref.digest).c_str());
  }

  // Every universe replays the same churn script, so an event's fastest
  // execution is its cost. The percentiles are over the 120 events' fastest
  // executions, so 12 lie beyond p90.
  std::vector<double> walls, ramps, traced_walls;
  std::vector<double> event_ms(setup->schedule.events.size(),
                               std::numeric_limits<double>::infinity());
  std::vector<MetricTable> layer_passes;
  PassPlan plan(args);
  while (!plan.Finished()) {
    const bool traced = plan.NextIsTraced();
    const ChurnRun run = RunChurnUniverse(*setup, traced);
    outcomes->Record("churn", run.digest, true);
    if (traced) {
      traced_walls.push_back(run.wall_s);
      layer_passes.push_back(LayerTable({}, &run));
    } else {
      walls.push_back(run.wall_s);
      ramps.push_back(run.ramp_s);
      for (size_t e = 0; e < event_ms.size(); ++e) {
        event_ms[e] = std::min(event_ms[e], run.event_ms[e]);
      }
    }
    std::fprintf(stderr, "[perfbench] %s universe %.3f s (ramp %.3f s)\n",
                 traced ? "traced" : "untraced", run.wall_s, run.ramp_s);
    plan.Done(traced);
  }

  if (args.trace) {
    *metrics = MedianTable(layer_passes);
    AddTraceSummary(walls, traced_walls, event_ms.size(), metrics);
    return;
  }
  // One universe is the workload's only cell.
  AddEndToEnd(Min(walls), setup_s, Min(walls), Min(ramps), NearestRank(event_ms, 50),
              NearestRank(event_ms, 90), metrics);
}

void PrintResult(const Args& args, const Outcomes& outcomes, const MetricTable& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, ",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0);
  std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"digests\": {",
              outcomes.attempted(), outcomes.failed());
  const char* sep = "";
  for (const auto& [cell, digest] : outcomes.reference()) {
    std::printf("%s\"%s\": \"%s\"", sep, cell.c_str(), Hex(digest).c_str());
    sep = ", ";
  }
  std::printf("}, \"digest_runs\": {");
  sep = "";
  for (const auto& [cell, runs] : outcomes.runs()) {
    std::printf("%s\"%s\": %" PRIu64, sep, cell.c_str(), runs);
    sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  sep = "";
  for (const Metric& m : metrics.metrics()) {
    if (m.exact) {
      std::printf("%s\"%s\": {\"value\": %" PRIu64 ", \"unit\": \"%s\"}", sep, m.name.c_str(),
                  static_cast<uint64_t>(m.value), m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Outcomes outcomes;
  MetricTable metrics;
  if (args.workload == "star-testbed") {
    RunCoRunWorkload(args, BuildStarTestbed, &outcomes, &metrics);
  } else if (args.workload == "spine-leaf-policies") {
    RunCoRunWorkload(args, BuildSpineLeafPolicies, &outcomes, &metrics);
  } else if (args.workload == "controller-churn") {
    RunChurnWorkload(args, &outcomes, &metrics);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  PrintResult(args, outcomes, metrics);
  return 0;
}
