#include "src/exp/scenario.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "src/net/network.h"
#include "src/net/units.h"
#include "src/sim/parse.h"
#include "src/sim/rng.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

// Splits "key=value" into its parts; returns false if there is no '='.
bool SplitKeyValue(const std::string& token, std::string* key, std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// ParseInt64, narrowed to the values an int (and so a NodeId) holds.
std::optional<int> ParseIntValue(const std::string& text) {
  const std::optional<int64_t> value = ParseInt64(text);
  if (!value.has_value() || *value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

// The largest accepted job start time, in seconds, and dataset scale. The
// paper's jobs run for minutes and the catalog's scaling laws are calibrated
// for 0.1-10x, so both bounds sit far above real use and far below the
// magnitudes at which a run stops finishing (start=1e15, dataset=1e20).
constexpr double kMaxStartSeconds = 1e9;
constexpr double kMaxDatasetScale = 1e6;

// Bounds on the congestion and capacity fields, also far outside real use
// (gamma 0-0.4, 20-56 Gb/s links, degrade factors 0.4-0.5). They reject the
// magnitudes at which rates round to 0 b/s and jobs never finish: gamma 1e12
// floors a shared queue's FECN efficiency, and a 1 b/s link floors every
// flow's integer share. A slow link that carries enough flows still floors
// them; the bounds do not prevent that.
constexpr double kMaxFecnGamma = 10;
constexpr double kMinCapacityGbps = 0.001;
constexpr double kMinDegradeFactor = 0.001;

std::optional<PolicyKind> PolicyFromName(const std::string& name) {
  static const std::map<std::string, PolicyKind> kPolicies = {
      {"baseline", PolicyKind::kBaseline},
      {"saba", PolicyKind::kSaba},
      {"saba-distributed", PolicyKind::kSabaDistributed},
      {"saba-unlimited", PolicyKind::kSabaUnlimited},
      {"ideal-max-min", PolicyKind::kIdealMaxMin},
      {"homa", PolicyKind::kHoma},
      {"sincronia", PolicyKind::kSincronia},
      {"pfabric", PolicyKind::kPFabric},
  };
  auto it = kPolicies.find(name);
  if (it == kPolicies.end()) {
    return std::nullopt;
  }
  return it->second;
}

void Fail(std::string* error, int line_number, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_number) + ": " + message;
  }
}

// The largest fabric a topology line builds: 16x the fig11-scale fabric's
// 10,824 nodes and 92,880 directed links. Far larger lines parse as numbers
// but would exhaust memory in the builders (servers=1000000000 is 10^9
// hosts), and the budget keeps every NodeId and LinkId inside 32 bits.
constexpr int kMaxFabricNodes = 16 * 10824;
constexpr int kMaxFabricLinks = 16 * 92880;
static_assert(kMaxFabricNodes <= std::numeric_limits<NodeId>::max() &&
              kMaxFabricLinks <= std::numeric_limits<LinkId>::max());

// True when a fabric of `nodes` nodes and `duplex_links` duplex links is
// within the budget. The counts are doubles so that products of user-given
// counts cannot overflow; every value below 2^53 is exact.
bool WithinFabricBudget(double nodes, double duplex_links) {
  return nodes <= kMaxFabricNodes && 2 * duplex_links <= kMaxFabricLinks;
}

// Builds the fabric of a `topology` line from its kind and its key=value
// parameters (every value already known to be a number). Rejects, with a
// message, an unknown kind, a key its kind does not take, and any parameter
// set the topology builders would abort or hang on: counts must be integers,
// capacities positive, every pod needs a ToR and a leaf, a multi-pod fabric
// needs a spine, and the fabric must be within the budget.
std::optional<Topology> BuildTopologyLine(const std::string& kind,
                                          const std::map<std::string, std::string>& kv,
                                          std::string* error) {
  auto reject = [error](const std::string& message) {
    *error = message;
    return std::optional<Topology>();
  };
  const std::map<std::string, std::vector<std::string>> kind_keys = {
      {"star", {"servers", "capacity_gbps"}},
      {"spineleaf", {"spine", "leaf", "tor", "hosts_per_tor", "pods", "capacity_gbps"}},
      {"fattree", {"k", "capacity_gbps", "core_gbps"}}};
  const auto keys = kind_keys.find(kind);
  if (keys == kind_keys.end()) {
    return reject("unknown topology kind '" + kind + "'");
  }
  for (const auto& [key, value] : kv) {
    if (std::ranges::find(keys->second, key) == keys->second.end()) {
      return reject("unknown " + kind + " parameter '" + key + "'");
    }
  }
  auto over_budget = [&]() {
    std::string message = kind + " is too large: a fabric has at most ";
    message += std::to_string(kMaxFabricNodes) + " nodes and ";
    return reject(message + std::to_string(kMaxFabricLinks) + " directed links");
  };
  // Every count is checked here once, so count() below cannot fail.
  for (const char* key : {"servers", "spine", "leaf", "tor", "hosts_per_tor", "pods", "k"}) {
    if (kv.count(key) > 0 && !ParseIntValue(kv.at(key)).has_value()) {
      return reject(std::string(key) + " must be an integer");
    }
  }
  auto count = [&kv](const std::string& key, int fallback) {
    return kv.count(key) > 0 ? *ParseIntValue(kv.at(key)) : fallback;
  };
  auto gbps = [&kv](const std::string& key, double fallback) {
    return kv.count(key) > 0 ? *ParseDoubleField(kv.at(key)) : fallback;
  };
  const double capacity_gbps = gbps("capacity_gbps", 56.0);
  if (capacity_gbps < kMinCapacityGbps) {
    return reject("capacity_gbps must be at least 0.001");
  }
  const Bps64 capacity = Gbps64(capacity_gbps);

  if (kind == "star") {
    const int servers = count("servers", 32);
    if (servers < 2) {
      return reject("star needs servers >= 2");
    }
    if (!WithinFabricBudget(servers + 1.0, servers)) {
      return over_budget();
    }
    return BuildSingleSwitchStar(servers, capacity);
  }
  if (kind == "spineleaf") {
    SpineLeafParams params;
    params.num_spine = count("spine", 4);
    params.num_leaf = count("leaf", 8);
    params.num_tor = count("tor", 8);
    params.hosts_per_tor = count("hosts_per_tor", 9);
    params.num_pods = count("pods", 2);
    params.host_link_bps = params.tor_leaf_bps = params.leaf_spine_bps = capacity;
    if (params.num_pods < 1) {
      return reject("spineleaf needs pods >= 1");
    }
    if (params.num_tor < params.num_pods || params.num_leaf < params.num_pods) {
      return reject("spineleaf needs at least one tor and one leaf per pod");
    }
    if (params.num_tor % params.num_pods != 0 || params.num_leaf % params.num_pods != 0) {
      return reject("tor and leaf counts must divide evenly into pods");
    }
    if (params.hosts_per_tor < 1) {
      return reject("spineleaf needs hosts_per_tor >= 1");
    }
    if (params.num_spine < (params.num_pods > 1 ? 1 : 0)) {
      return reject("spineleaf needs spine >= 1 to connect its pods (spine >= 0 with one pod)");
    }
    const double tors = params.num_tor;
    const double hosts = tors * params.hosts_per_tor;
    if (!WithinFabricBudget(hosts + tors + params.num_leaf + params.num_spine,
                            hosts + tors * (params.num_leaf / params.num_pods) +
                                static_cast<double>(params.num_leaf) * params.num_spine)) {
      return over_budget();
    }
    return BuildSpineLeaf(params);
  }
  // kind == "fattree".
  FatTreeParams params;
  params.k = count("k", 4);
  params.host_link_bps = params.edge_agg_bps = capacity;
  const double core_gbps = gbps("core_gbps", capacity_gbps);
  params.agg_core_bps = Gbps64(core_gbps);
  if (params.k < 2 || params.k % 2 != 0) {
    return reject("fattree needs an even k >= 2");
  }
  if (core_gbps < kMinCapacityGbps) {
    return reject("fattree core_gbps must be at least 0.001");
  }
  const double k = params.k;
  if (!WithinFabricBudget(k * k * k / 4 + 5 * k * k / 4, 3 * k * k * k / 4)) {
    return over_budget();
  }
  return BuildFatTree(params);
}

}  // namespace

std::optional<Scenario> ParseScenario(const std::string& text, std::string* error) {
  Scenario scenario;
  bool have_topology = false;
  // Failure lines may precede the topology line, so node-id and link
  // validation is deferred until the topology is resolved (end of parse).
  std::vector<std::pair<int, FailureEvent>> pending_failures;

  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive) || directive[0] == '#') {
      continue;  // Blank line or comment.
    }

    // Collect the remaining key=value (or bare) tokens.
    std::vector<std::string> rest;
    std::string token;
    while (tokens >> token) {
      rest.push_back(token);
    }

    if (directive == "topology") {
      if (rest.empty()) {
        Fail(error, line_number, "topology needs a kind (star | spineleaf | fattree)");
        return std::nullopt;
      }
      std::map<std::string, std::string> kv;
      for (size_t i = 1; i < rest.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(rest[i], &key, &value) || !ParseDoubleField(value).has_value()) {
          Fail(error, line_number, "bad topology parameter '" + rest[i] + "'");
          return std::nullopt;
        }
        kv[key] = value;
      }
      std::string topology_error;
      std::optional<Topology> topology = BuildTopologyLine(rest[0], kv, &topology_error);
      if (!topology.has_value()) {
        Fail(error, line_number, topology_error);
        return std::nullopt;
      }
      scenario.topology = std::move(*topology);
      have_topology = true;
    } else if (directive == "policy") {
      if (rest.size() != 1) {
        Fail(error, line_number, "policy needs exactly one name");
        return std::nullopt;
      }
      const auto policy = PolicyFromName(rest[0]);
      if (!policy.has_value()) {
        Fail(error, line_number, "unknown policy '" + rest[0] + "'");
        return std::nullopt;
      }
      scenario.options.policy = *policy;
    } else if (directive == "seed") {
      const std::optional<uint64_t> seed = rest.size() == 1 ? ParseUint64(rest[0]) : std::nullopt;
      if (!seed.has_value()) {
        Fail(error, line_number, "seed needs one non-negative integer");
        return std::nullopt;
      }
      scenario.seed = *seed;
      scenario.options.seed = scenario.seed;
    } else if (directive == "gamma") {
      const std::optional<double> gamma =
          rest.size() == 1 ? ParseDoubleField(rest[0]) : std::nullopt;
      if (!gamma.has_value() || *gamma < 0 || *gamma > kMaxFecnGamma) {
        Fail(error, line_number, "gamma needs one number in [0, 10]");
        return std::nullopt;
      }
      scenario.options.fecn_gamma = *gamma;
    } else if (directive == "floor") {
      const std::optional<double> floor =
          rest.size() == 1 ? ParseDoubleField(rest[0]) : std::nullopt;
      if (!floor.has_value() || *floor < 0 || *floor > 1) {
        Fail(error, line_number, "floor needs one number in [0, 1]");
        return std::nullopt;
      }
      scenario.options.relative_min_weight = *floor;
    } else if (directive == "queues") {
      const std::optional<int> queues = rest.size() == 1 ? ParseIntValue(rest[0]) : std::nullopt;
      if (!queues.has_value() || *queues < 1 || *queues > kNumServiceLevels) {
        Fail(error, line_number, "queues needs one integer in [1, 16]");
        return std::nullopt;
      }
      scenario.options.queues_per_port = *queues;
    } else if (directive == "job") {
      if (rest.empty()) {
        Fail(error, line_number, "job needs a workload name");
        return std::nullopt;
      }
      ScenarioJob job;
      job.workload = rest[0];
      if (FindWorkload(job.workload) == nullptr) {
        Fail(error, line_number, "unknown workload '" + job.workload + "'");
        return std::nullopt;
      }
      for (size_t i = 1; i < rest.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(rest[i], &key, &value)) {
          Fail(error, line_number, "bad job parameter '" + rest[i] + "'");
          return std::nullopt;
        }
        if (key == "nodes") {
          const std::optional<int> nodes = ParseIntValue(value);
          if (!nodes.has_value() || *nodes < 2) {
            Fail(error, line_number, "nodes must be an integer >= 2");
            return std::nullopt;
          }
          job.nodes = *nodes;
        } else if (key == "dataset") {
          const std::optional<double> scale = ParseDoubleField(value);
          if (!scale.has_value() || *scale <= 0 || *scale > kMaxDatasetScale) {
            Fail(error, line_number, "dataset must be a scale factor in (0, 1e6]");
            return std::nullopt;
          }
          job.dataset_scale = *scale;
        } else if (key == "start") {
          const std::optional<double> start = ParseDoubleField(value);
          if (!start.has_value() || *start < 0 || *start > kMaxStartSeconds) {
            Fail(error, line_number, "start must be a time in [0, 1e9] seconds");
            return std::nullopt;
          }
          job.start_at = *start;
        } else {
          Fail(error, line_number, "unknown job parameter '" + key + "'");
          return std::nullopt;
        }
      }
      scenario.jobs.push_back(std::move(job));
    } else if (directive == "fail" || directive == "degrade") {
      // fail link a=.. b=.. at=.. [until=..]
      // fail switch id=.. at=.. [until=..]
      // degrade link a=.. b=.. at=.. factor=.. [until=..]
      if (rest.empty()) {
        Fail(error, line_number, directive + " needs a target kind (link | switch)");
        return std::nullopt;
      }
      FailureEvent event;
      bool have_a = false;
      bool have_b = false;
      bool have_at = false;
      bool have_factor = false;
      if (directive == "fail" && rest[0] == "link") {
        event.kind = FailureEvent::Kind::kLinkDown;
      } else if (directive == "fail" && rest[0] == "switch") {
        event.kind = FailureEvent::Kind::kNodeDown;
      } else if (directive == "degrade" && rest[0] == "link") {
        event.kind = FailureEvent::Kind::kLinkDegrade;
      } else {
        Fail(error, line_number, "unknown " + directive + " target '" + rest[0] + "'");
        return std::nullopt;
      }
      for (size_t i = 1; i < rest.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(rest[i], &key, &value)) {
          Fail(error, line_number, "bad " + directive + " parameter '" + rest[i] + "'");
          return std::nullopt;
        }
        // Node ids must be integers (so the casts below are exact); times
        // and factors may be any number.
        const bool node_key = key == "a" || key == "b" || key == "id";
        const std::optional<double> parsed =
            node_key ? std::optional<double>(ParseIntValue(value)) : ParseDoubleField(value);
        if (!parsed.has_value()) {
          Fail(error, line_number, "bad " + directive + " parameter '" + rest[i] + "'");
          return std::nullopt;
        }
        const double number = *parsed;
        if ((key == "a" && event.kind != FailureEvent::Kind::kNodeDown) ||
            (key == "id" && event.kind == FailureEvent::Kind::kNodeDown)) {
          event.a = static_cast<NodeId>(number);
          have_a = true;
        } else if (key == "b" && event.kind != FailureEvent::Kind::kNodeDown) {
          event.b = static_cast<NodeId>(number);
          have_b = true;
        } else if (key == "at") {
          event.at = number;
          have_at = true;
        } else if (key == "until") {
          event.until = number;
        } else if (key == "factor" && event.kind == FailureEvent::Kind::kLinkDegrade) {
          event.capacity_factor = number;
          have_factor = true;
        } else {
          Fail(error, line_number, "unknown " + directive + " parameter '" + key + "'");
          return std::nullopt;
        }
      }
      const bool needs_b = event.kind != FailureEvent::Kind::kNodeDown;
      if (!have_a || (needs_b && !have_b)) {
        Fail(error, line_number,
             needs_b ? directive + " link needs a= and b= endpoints" : "fail switch needs id=");
        return std::nullopt;
      }
      if (!have_at || event.at < 0) {
        Fail(error, line_number, directive + " needs a non-negative at= time");
        return std::nullopt;
      }
      if (event.until >= 0 && event.until <= event.at) {
        Fail(error, line_number, "until= must be later than at=");
        return std::nullopt;
      }
      if (event.kind == FailureEvent::Kind::kLinkDegrade &&
          (!have_factor || event.capacity_factor < kMinDegradeFactor ||
           event.capacity_factor > 1)) {
        Fail(error, line_number, "degrade needs factor= in [0.001, 1]");
        return std::nullopt;
      }
      pending_failures.emplace_back(line_number, event);
    } else {
      Fail(error, line_number, "unknown directive '" + directive + "'");
      return std::nullopt;
    }
  }

  if (!have_topology) {
    scenario.topology = BuildSingleSwitchStar(32, Gbps64(56));
  }
  if (scenario.jobs.empty()) {
    Fail(error, 0, "scenario declares no jobs");
    return std::nullopt;
  }
  // Checked here, not on the policy or queues line: the two may come in
  // either order.
  if (scenario.options.policy == PolicyKind::kHoma && scenario.options.queues_per_port < 2) {
    Fail(error, 0, "policy homa needs queues >= 2");
    return std::nullopt;
  }
  const size_t servers = scenario.topology.Hosts().size();
  for (const ScenarioJob& job : scenario.jobs) {
    if (static_cast<size_t>(job.nodes) > servers) {
      Fail(error, 0, "job '" + job.workload + "' wants more nodes than the fabric has");
      return std::nullopt;
    }
  }
  // Validate deferred failure events against the resolved topology.
  const Topology& topo = scenario.topology;
  for (const auto& [fail_line, event] : pending_failures) {
    if (event.a < 0 || static_cast<size_t>(event.a) >= topo.num_nodes()) {
      Fail(error, fail_line, "failure names a node id outside the topology");
      return std::nullopt;
    }
    if (event.kind == FailureEvent::Kind::kNodeDown) {
      if (!IsSwitch(topo.node(event.a).kind)) {
        Fail(error, fail_line, "fail switch must name a switch, not a host");
        return std::nullopt;
      }
    } else {
      if (event.b < 0 || static_cast<size_t>(event.b) >= topo.num_nodes()) {
        Fail(error, fail_line, "failure names a node id outside the topology");
        return std::nullopt;
      }
      if (topo.FindLink(event.a, event.b) == kInvalidLink ||
          topo.FindLink(event.b, event.a) == kInvalidLink) {
        Fail(error, fail_line, "no duplex link between the named endpoints");
        return std::nullopt;
      }
    }
    scenario.options.failures.push_back(event);
  }
  return scenario;
}

std::vector<JobSpec> BuildScenarioJobs(const Scenario& scenario) {
  Rng rng(scenario.seed);
  const std::vector<NodeId> servers = scenario.topology.Hosts();
  std::vector<int> load(servers.size(), 0);

  std::vector<JobSpec> jobs;
  for (const ScenarioJob& job : scenario.jobs) {
    const WorkloadSpec* base = FindWorkload(job.workload);
    assert(base != nullptr);  // Guaranteed by the parser.
    JobSpec spec;
    spec.spec = ScaleWorkload(*base, job.dataset_scale, job.nodes);
    spec.start_at = job.start_at;

    std::vector<size_t> order(servers.size());
    for (size_t s = 0; s < servers.size(); ++s) {
      order[s] = s;
    }
    rng.Shuffle(&order);
    std::stable_sort(order.begin(), order.end(),
                     [&load](size_t a, size_t b) { return load[a] < load[b]; });
    for (int i = 0; i < job.nodes; ++i) {
      load[order[static_cast<size_t>(i)]] += 1;
      spec.hosts.push_back(servers[order[static_cast<size_t>(i)]]);
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

CoRunResult RunScenario(const Scenario& scenario, const SensitivityTable& table) {
  CoRunOptions options = scenario.options;
  options.table = &table;
  return RunCoRun(scenario.topology, BuildScenarioJobs(scenario), options);
}

}  // namespace saba
