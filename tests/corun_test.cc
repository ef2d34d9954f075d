// Integration tests of the co-run executor across all policies.

#include "src/exp/corun.h"

#include <gtest/gtest.h>

#include "src/core/profiler.h"
#include "src/exp/cluster_setup.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

class CoRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ProfilerOptions options;
    options.noise_sigma = 0;  // Deterministic models for the integration tests.
    OfflineProfiler profiler(options);
    table_ = new SensitivityTable(profiler.ProfileAll(HiBenchCatalog()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  // LR and PR co-located on all 8 hosts — the paper's §2.2 experiment.
  static std::vector<JobSpec> LrPrJobs() {
    std::vector<NodeId> hosts;
    for (NodeId h = 0; h < 8; ++h) {
      hosts.push_back(h);
    }
    std::vector<JobSpec> jobs;
    jobs.push_back({*FindWorkload("LR"), hosts, 0.0});
    jobs.push_back({*FindWorkload("PR"), hosts, 0.0});
    return jobs;
  }

  static SensitivityTable* table_;
};

// saba-lint: shared-state-ok(gtest fixture static: written once in SetUpTestSuite before any
// test body runs; test bodies run serially on one thread)
SensitivityTable* CoRunTest::table_ = nullptr;

TEST_F(CoRunTest, AllPoliciesCompleteAllJobs) {
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));
  const std::vector<JobSpec> jobs = LrPrJobs();
  for (PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kSaba, PolicyKind::kSabaDistributed,
        PolicyKind::kSabaUnlimited, PolicyKind::kIdealMaxMin, PolicyKind::kHoma,
        PolicyKind::kSincronia, PolicyKind::kPFabric}) {
    CoRunOptions options;
    options.policy = policy;
    options.table = table_;
    const CoRunResult result = RunCoRun(topo, jobs, options);
    ASSERT_EQ(result.completion_seconds.size(), 2u) << PolicyName(policy);
    for (double t : result.completion_seconds) {
      EXPECT_GT(t, 0) << PolicyName(policy);
    }
  }
}

TEST_F(CoRunTest, SabaFavoursTheSensitiveJob) {
  // §2.2 / Fig 1b: under skewed (sensitivity-aware) allocation LR improves a
  // lot while PR degrades a little, relative to equal sharing.
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));
  const std::vector<JobSpec> jobs = LrPrJobs();

  CoRunOptions baseline_options;
  baseline_options.policy = PolicyKind::kBaseline;
  const CoRunResult baseline = RunCoRun(topo, jobs, baseline_options);

  CoRunOptions saba_options;
  saba_options.policy = PolicyKind::kSaba;
  saba_options.table = table_;
  const CoRunResult saba = RunCoRun(topo, jobs, saba_options);

  const std::vector<double> speedups = Speedups(baseline, saba);
  EXPECT_GT(speedups[0], 1.25) << "LR (sensitive) must gain substantially";
  EXPECT_GT(speedups[1], 0.85) << "PR (insensitive) must lose at most mildly";
  EXPECT_GT(GeometricMean(speedups), 1.08);
}

TEST_F(CoRunTest, SabaBeatsBaselineOnRandomClusterSetup) {
  const Topology topo = BuildSingleSwitchStar(32, Gbps64(56));
  Rng rng(123);
  ClusterSetupOptions setup_options;
  const std::vector<JobSpec> jobs =
      GenerateClusterSetup(HiBenchCatalog(), setup_options, &rng);
  ASSERT_EQ(jobs.size(), 16u);

  CoRunOptions baseline_options;
  baseline_options.policy = PolicyKind::kBaseline;
  const CoRunResult baseline = RunCoRun(topo, jobs, baseline_options);

  CoRunOptions saba_options;
  saba_options.policy = PolicyKind::kSaba;
  saba_options.table = table_;
  const CoRunResult saba = RunCoRun(topo, jobs, saba_options);

  EXPECT_GT(GeometricMean(Speedups(baseline, saba)), 1.15);
  EXPECT_GT(saba.controller_stats.registrations, 0u);
  EXPECT_GT(saba.controller_stats.port_reconfigurations, 0u);
}

TEST_F(CoRunTest, DeterministicAcrossRuns) {
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));
  const std::vector<JobSpec> jobs = LrPrJobs();
  CoRunOptions options;
  options.policy = PolicyKind::kSaba;
  options.table = table_;
  const CoRunResult a = RunCoRun(topo, jobs, options);
  const CoRunResult b = RunCoRun(topo, jobs, options);
  ASSERT_EQ(a.completion_seconds.size(), b.completion_seconds.size());
  for (size_t i = 0; i < a.completion_seconds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.completion_seconds[i], b.completion_seconds[i]);
  }
}

TEST(ClusterSetupTest, RespectsPlacementConstraints) {
  Rng rng(7);
  ClusterSetupOptions options;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<JobSpec> jobs =
        GenerateClusterSetup(HiBenchCatalog(), options, &rng);
    std::vector<int> load(static_cast<size_t>(options.num_servers), 0);
    for (const JobSpec& job : jobs) {
      std::vector<bool> seen(static_cast<size_t>(options.num_servers), false);
      for (NodeId host : job.hosts) {
        ASSERT_GE(host, 0);
        ASSERT_LT(host, options.num_servers);
        EXPECT_FALSE(seen[static_cast<size_t>(host)])
            << "two instances of one job on a server";
        seen[static_cast<size_t>(host)] = true;
        load[static_cast<size_t>(host)] += 1;
      }
      EXPECT_GE(static_cast<int>(job.hosts.size()), 2);
      EXPECT_LE(static_cast<int>(job.hosts.size()), options.num_servers);
    }
    for (int l : load) {
      EXPECT_LE(l, kMaxJobsPerServer);
    }
  }
}

TEST(ClusterSetupTest, DrawsSpanCatalogOverTrials) {
  Rng rng(11);
  ClusterSetupOptions options;
  std::set<std::string> names;
  for (int trial = 0; trial < 10; ++trial) {
    for (const JobSpec& job : GenerateClusterSetup(HiBenchCatalog(), options, &rng)) {
      names.insert(job.spec.name);
    }
  }
  EXPECT_GE(names.size(), 9u);
}

}  // namespace
}  // namespace saba
