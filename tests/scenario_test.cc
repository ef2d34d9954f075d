#include "src/exp/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/core/profiler.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

constexpr const char* kValidScenario = R"(
# two jobs on a small star
topology star servers=8 capacity_gbps=56
policy saba
seed 9
gamma 0.25
queues 4
job LR nodes=8
job PR nodes=8 dataset=1 start=1.5
)";

TEST(ScenarioParserTest, ParsesValidScenario) {
  std::string error;
  const auto scenario = ParseScenario(kValidScenario, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->topology.Hosts().size(), 8u);
  EXPECT_EQ(scenario->options.policy, PolicyKind::kSaba);
  EXPECT_EQ(scenario->seed, 9u);
  EXPECT_DOUBLE_EQ(scenario->options.fecn_gamma, 0.25);
  EXPECT_EQ(scenario->options.queues_per_port, 4);
  ASSERT_EQ(scenario->jobs.size(), 2u);
  EXPECT_EQ(scenario->jobs[0].workload, "LR");
  EXPECT_DOUBLE_EQ(scenario->jobs[1].start_at, 1.5);
}

TEST(ScenarioParserTest, ParsesFloorDirective) {
  const auto scenario = ParseScenario("floor 0.5\njob LR nodes=4\n");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_DOUBLE_EQ(scenario->options.relative_min_weight, 0.5);
  EXPECT_FALSE(ParseScenario("floor 1.5\njob LR\n").has_value());
}

TEST(ScenarioParserTest, ParsesSpineLeafTopology) {
  std::string error;
  const auto scenario = ParseScenario(
      "topology spineleaf spine=2 leaf=4 tor=4 hosts_per_tor=3 pods=2\njob LR nodes=4\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->topology.Hosts().size(), 12u);
}

TEST(ScenarioParserTest, ParsesFatTreeTopology) {
  std::string error;
  const auto scenario = ParseScenario(
      "topology fattree k=4 capacity_gbps=40 core_gbps=20\njob LR nodes=4\n", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->topology.Hosts().size(), 16u);
  // Host and edge-agg links carry capacity_gbps; agg-core links carry
  // core_gbps (node layout: hosts 0-15, edge0 = 16, agg0 = 24, core0 = 32).
  const LinkId host_link = scenario->topology.FindLink(0, 16);
  ASSERT_NE(host_link, kInvalidLink);
  EXPECT_EQ(scenario->topology.link(host_link).capacity_bps, Gbps64(40));
  const LinkId up_link = scenario->topology.FindLink(24, 32);
  ASSERT_NE(up_link, kInvalidLink);
  EXPECT_EQ(scenario->topology.link(up_link).capacity_bps, Gbps64(20));
}

TEST(ScenarioParserTest, ParsesFailureDirectivesBeforeTopology) {
  // Failure lines may precede the topology line: endpoint validation is
  // deferred until the fabric is resolved.
  std::string error;
  const auto scenario = ParseScenario(
      "fail link a=16 b=24 at=1.5 until=4.0\n"
      "fail switch id=24 at=2.0\n"
      "degrade link a=24 b=32 at=1.0 factor=0.5 until=3.0\n"
      "topology fattree k=4\n"
      "job LR nodes=4\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  ASSERT_EQ(scenario->options.failures.size(), 3u);
  const FailureEvent& link = scenario->options.failures[0];
  EXPECT_EQ(link.kind, FailureEvent::Kind::kLinkDown);
  EXPECT_EQ(link.a, 16);
  EXPECT_EQ(link.b, 24);
  EXPECT_DOUBLE_EQ(link.at, 1.5);
  EXPECT_DOUBLE_EQ(link.until, 4.0);
  const FailureEvent& node = scenario->options.failures[1];
  EXPECT_EQ(node.kind, FailureEvent::Kind::kNodeDown);
  EXPECT_EQ(node.a, 24);
  EXPECT_LT(node.until, 0) << "no until= means permanent";
  const FailureEvent& degrade = scenario->options.failures[2];
  EXPECT_EQ(degrade.kind, FailureEvent::Kind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(degrade.capacity_factor, 0.5);
}

TEST(ScenarioParserTest, FabricBudgetAdmitsFig11ScaleAndStopsAtItsBound) {
  // controller-churn's fig11-scale fabric: 10,824 nodes, 92,880 directed links.
  const char* fig11_scale =
      "topology spineleaf spine=54 leaf=510 tor=540 hosts_per_tor=18 pods=30\njob LR nodes=2\n";
  // A star of N servers has N + 1 nodes; the budget is 16 x 10,824 nodes.
  const char* at_budget = "topology star servers=173183\njob LR nodes=2\n";
  const char* over_budget = "topology star servers=173184\njob LR nodes=2\n";
  const std::string message =
      "line 1: star is too large: a fabric has at most 173184 nodes and 1486080 directed links";
  std::string error;
  EXPECT_TRUE(ParseScenario(fig11_scale, &error).has_value()) << error;
  EXPECT_TRUE(ParseScenario(at_budget, &error).has_value()) << error;
  EXPECT_FALSE(ParseScenario(over_budget, &error).has_value());
  EXPECT_EQ(error, message);
}

TEST(ScenarioParserTest, QueuesStopAtTheVirtualLaneCeiling) {
  const auto scenario = ParseScenario("queues 16\njob LR nodes=2\n");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->options.queues_per_port, 16);
  std::string error;
  EXPECT_FALSE(ParseScenario("seed 1\nqueues 17\njob LR nodes=2\n", &error).has_value());
  EXPECT_EQ(error, "line 2: queues needs one integer in [1, 16]");
}

TEST(ScenarioParserTest, DefaultsWhenOmitted) {
  const auto scenario = ParseScenario("job Sort nodes=4\n");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->topology.Hosts().size(), 32u);  // Default star.
  EXPECT_EQ(scenario->options.policy, PolicyKind::kBaseline);
  EXPECT_EQ(scenario->jobs[0].nodes, 4);
  EXPECT_DOUBLE_EQ(scenario->jobs[0].dataset_scale, 1.0);
}

TEST(ScenarioParserTest, SeedTakesTheWholeUnsignedRange) {
  for (const uint64_t seed : {uint64_t{2147483648}, std::numeric_limits<uint64_t>::max()}) {
    const std::string text = "seed " + std::to_string(seed) + "\njob LR nodes=4\n";
    std::string error;
    const auto scenario = ParseScenario(text, &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    EXPECT_EQ(scenario->seed, seed);
    EXPECT_EQ(scenario->options.seed, seed);
  }
  EXPECT_FALSE(ParseScenario("seed -1\njob LR nodes=4\n").has_value());
}

struct BadCase {
  const char* name;
  const char* text;
};

class ScenarioParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioParserErrorTest, RejectsWithMessage) {
  std::string error;
  EXPECT_FALSE(ParseScenario(GetParam().text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    BadScenarios, ScenarioParserErrorTest,
    ::testing::Values(
        BadCase{"no_jobs", "topology star servers=4\n"},
        BadCase{"unknown_directive", "jobs LR\n"},
        BadCase{"unknown_workload", "job NotAWorkload nodes=4\n"},
        BadCase{"unknown_policy", "policy tcp\njob LR\n"},
        BadCase{"bad_topology_kind", "topology ring servers=4\njob LR\n"},
        BadCase{"topology_key_typo", "topology star server=4\njob LR nodes=2\n"},
        BadCase{"topology_key_of_other_kind", "topology star servers=4 k=6\njob LR nodes=2\n"},
        BadCase{"bad_kv", "job LR nodes\n"},
        BadCase{"bad_nodes", "job LR nodes=1\n"},
        BadCase{"negative_start", "job LR start=-2\n"},
        BadCase{"oversized_job", "topology star servers=4\njob LR nodes=8\n"},
        BadCase{"bad_pods", "topology spineleaf tor=3 pods=2\njob LR nodes=2\n"},
        BadCase{"fattree_odd_k", "topology fattree k=5\njob LR nodes=4\n"},
        BadCase{"fail_unknown_target", "topology fattree k=4\nfail host a=0 at=1\njob LR nodes=4\n"},
        BadCase{"fail_link_missing_b", "topology fattree k=4\nfail link a=16 at=1\njob LR nodes=4\n"},
        BadCase{"fail_missing_at", "topology fattree k=4\nfail link a=16 b=24\njob LR nodes=4\n"},
        BadCase{"fail_until_before_at",
                "topology fattree k=4\nfail link a=16 b=24 at=2 until=1\njob LR nodes=4\n"},
        BadCase{"fail_no_such_link",
                "topology fattree k=4\nfail link a=16 b=17 at=1\njob LR nodes=4\n"},
        BadCase{"fail_switch_on_host", "topology fattree k=4\nfail switch id=0 at=1\njob LR nodes=4\n"},
        BadCase{"fail_node_out_of_range",
                "topology fattree k=4\nfail switch id=99 at=1\njob LR nodes=4\n"},
        BadCase{"degrade_missing_factor",
                "topology fattree k=4\ndegrade link a=16 b=24 at=1\njob LR nodes=4\n"},
        BadCase{"degrade_bad_factor",
                "topology fattree k=4\ndegrade link a=16 b=24 at=1 factor=1.5\njob LR nodes=4\n"},
        BadCase{"zero_pods", "topology spineleaf pods=0\njob LR nodes=2\n"},
        BadCase{"zero_capacity", "topology star servers=4 capacity_gbps=0\njob LR nodes=2\n"},
        BadCase{"negative_capacity", "topology star servers=4 capacity_gbps=-5\njob LR nodes=2\n"},
        BadCase{"no_spine_two_pods",
                "topology spineleaf spine=0 leaf=4 tor=4 hosts_per_tor=2 pods=2\njob LR nodes=8\n"},
        BadCase{"no_leaf",
                "topology spineleaf leaf=0 tor=4 hosts_per_tor=2 pods=2\njob LR nodes=8\n"},
        BadCase{"homa_one_queue", "queues 1\npolicy homa\njob LR nodes=2\n"},
        // More queues than InfiniBand's 16 virtual lanes.
        BadCase{"queues_above_vl_ceiling", "queues 17\npolicy saba\njob LR nodes=2\n"},
        // The host count 65536 x 65537 overflows a 32-bit int (it wraps to 65536).
        BadCase{"host_count_overflow",
                "topology spineleaf tor=65536 hosts_per_tor=65537 pods=2\njob LR nodes=2\n"},
        // Above the fabric budget (16x the fig11-scale fabric's nodes).
        BadCase{"fabric_over_budget", "topology star servers=200000\njob LR nodes=2\n"},
        BadCase{"fractional_servers", "topology star servers=2.7\njob LR nodes=2\n"},
        BadCase{"fractional_k", "topology fattree k=4.9\njob LR nodes=4\n"},
        // Magnitudes far beyond any real job, at which a run does not finish.
        BadCase{"huge_start",
                "topology star servers=8\njob PR nodes=4\njob LR nodes=4 start=1e15\n"},
        BadCase{"huge_dataset",
                "topology star servers=8\njob PR nodes=4\njob LR nodes=4 dataset=1e300\n"},
        // Node ids are integers: id=16.9 must not silently fail switch 16.
        BadCase{"fractional_switch_id",
                "topology fattree k=4\nfail switch id=16.9 at=1\njob LR nodes=4\n"},
        BadCase{"huge_node_id",
                "topology fattree k=4\nfail link a=1e300 b=24 at=1\njob LR nodes=4\n"},
        // Rates that round to 0 b/s, so the jobs never finish.
        BadCase{"huge_gamma",
                "topology star servers=4\npolicy baseline\nseed 3\ngamma 1e12\n"
                "job LR nodes=4\njob PR nodes=4\n"},
        BadCase{"tiny_capacity",
                "topology star servers=4 capacity_gbps=0.000000001\npolicy baseline\nseed 3\n"
                "job LR nodes=4\n"},
        BadCase{"tiny_core",
                "topology fattree k=4 core_gbps=0.000000001\npolicy baseline\nseed 3\n"
                "job LR nodes=8\njob PR nodes=8\n"},
        BadCase{"tiny_degrade_factor",
                "topology star servers=4\npolicy baseline\nseed 3\n"
                "degrade link a=0 b=4 at=1 factor=0.000000000001\njob LR nodes=4\n"}),
    [](const ::testing::TestParamInfo<BadCase>& info) { return info.param.name; });

TEST(ScenarioJobsTest, PlacementRespectsNodeCountsAndDistinctHosts) {
  const auto scenario = ParseScenario(
      "topology star servers=8\njob LR nodes=8\njob PR nodes=4\njob Sort nodes=2\n");
  ASSERT_TRUE(scenario.has_value());
  const std::vector<JobSpec> jobs = BuildScenarioJobs(*scenario);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].hosts.size(), 8u);
  EXPECT_EQ(jobs[1].hosts.size(), 4u);
  EXPECT_EQ(jobs[2].hosts.size(), 2u);
  for (const JobSpec& job : jobs) {
    std::set<NodeId> distinct(job.hosts.begin(), job.hosts.end());
    EXPECT_EQ(distinct.size(), job.hosts.size());
  }
}

TEST(ScenarioJobsTest, DeterministicPlacementGivenSeed) {
  const auto scenario = ParseScenario("seed 5\njob LR nodes=8\njob PR nodes=8\n");
  ASSERT_TRUE(scenario.has_value());
  const auto a = BuildScenarioJobs(*scenario);
  const auto b = BuildScenarioJobs(*scenario);
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].hosts, b[j].hosts);
  }
}

TEST(ScenarioRunTest, EndToEndSabaScenarioCompletes) {
  const auto scenario = ParseScenario(kValidScenario);
  ASSERT_TRUE(scenario.has_value());
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  const SensitivityTable table =
      profiler.ProfileAll({*FindWorkload("LR"), *FindWorkload("PR")});
  const CoRunResult result = RunScenario(*scenario, table);
  ASSERT_EQ(result.completion_seconds.size(), 2u);
  EXPECT_GT(result.completion_seconds[0], 0);
  EXPECT_GT(result.completion_seconds[1], 0);
}

// Reroute determinism end to end: a mid-run link failure on a fat-tree
// re-pins live flows, and running the same scenario twice must re-pin the
// same flows and give bit-identical job completion times.
TEST(ScenarioRunTest, RerouteRunIsRepeatable) {
  std::string error;
  const auto scenario = ParseScenario(
      "topology fattree k=4\npolicy saba\nseed 3\nqueues 8\n"
      "job LR nodes=8\njob Sort nodes=8 start=0.5\n"
      "fail link a=16 b=24 at=2.0 until=400.0\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  ProfilerOptions options;
  options.noise_sigma = 0;
  const SensitivityTable table =
      OfflineProfiler(options).ProfileAll({*FindWorkload("LR"), *FindWorkload("Sort")});

  const CoRunResult first = RunScenario(*scenario, table);
  const CoRunResult second = RunScenario(*scenario, table);

  EXPECT_GT(first.rerouted_flows, 0u) << "the failed link must cut through live flows";
  EXPECT_EQ(first.rerouted_flows, second.rerouted_flows);
  ASSERT_EQ(first.completion_seconds.size(), second.completion_seconds.size());
  for (size_t j = 0; j < first.completion_seconds.size(); ++j) {
    EXPECT_EQ(first.completion_seconds[j], second.completion_seconds[j])
        << "job " << j << " diverged between runs";
  }
}

}  // namespace
}  // namespace saba
