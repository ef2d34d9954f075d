// End-to-end integration: the full Saba pipeline (profiler -> controller ->
// client -> fabric) on a multi-tier topology, plus property sweeps over the
// whole workload catalog.

#include <gtest/gtest.h>

#include "src/core/profiler.h"
#include "src/exp/corun.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

class SpineLeafIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ProfilerOptions options;
    options.noise_sigma = 0;
    table_ = new SensitivityTable(OfflineProfiler(options).ProfileAll(HiBenchCatalog()));
    topo_ = new Topology(BuildSpineLeaf({.num_spine = 2,
                                         .num_leaf = 4,
                                         .num_tor = 4,
                                         .hosts_per_tor = 6,
                                         .num_pods = 2,
                                         .host_link_bps = Gbps64(56),
                                         .tor_leaf_bps = Gbps64(56),
                                         .leaf_spine_bps = Gbps64(56)}));
  }
  static void TearDownTestSuite() {
    delete table_;
    delete topo_;
    table_ = nullptr;
    topo_ = nullptr;
  }

  // Six jobs spanning rack boundaries (cross-pod traffic included).
  static std::vector<JobSpec> Jobs() {
    std::vector<JobSpec> jobs;
    const char* names[] = {"LR", "PR", "GBT", "Sort", "SVM", "WC"};
    for (int j = 0; j < 6; ++j) {
      JobSpec job;
      job.spec = ScaleWorkload(*FindWorkload(names[j]), 1.0, 8);
      for (int i = 0; i < 8; ++i) {
        job.hosts.push_back(static_cast<NodeId>((j * 3 + i * 3) % 24));
      }
      job.start_at = 0.5 * j;
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  static SensitivityTable* table_;
  static Topology* topo_;
};

// saba-lint: shared-state-ok(gtest fixture statics: written once in SetUpTestSuite before any
// test body runs; test bodies run serially on one thread)
SensitivityTable* SpineLeafIntegrationTest::table_ = nullptr;
// saba-lint: shared-state-ok(gtest fixture statics: written once in SetUpTestSuite before any
// test body runs; test bodies run serially on one thread)
Topology* SpineLeafIntegrationTest::topo_ = nullptr;

TEST_F(SpineLeafIntegrationTest, SabaPipelineRunsCleanOnFabric) {
  for (const PolicyKind policy :
       {PolicyKind::kSaba, PolicyKind::kSabaDistributed, PolicyKind::kSabaUnlimited}) {
    SCOPED_TRACE(PolicyName(policy));
    CoRunOptions options;
    options.policy = policy;
    options.table = table_;
    const CoRunResult result = RunCoRun(*topo_, Jobs(), options);

    for (double t : result.completion_seconds) {
      EXPECT_GT(t, 0);
    }
    const ControllerStats& stats = result.controller_stats;
    EXPECT_EQ(stats.registrations, 6u);
    EXPECT_EQ(stats.deregistrations, 6u);
    // Per-stage connection lifecycle: every create has a matching destroy.
    EXPECT_EQ(stats.conn_creates, stats.conn_destroys);
    EXPECT_GT(stats.conn_creates, 0u);
    EXPECT_GT(stats.port_reconfigurations, 0u);
  }
}

TEST_F(SpineLeafIntegrationTest, SabaAtLeastMatchesBaselineOnFabric) {
  CoRunOptions baseline;
  baseline.policy = PolicyKind::kBaseline;
  const CoRunResult base = RunCoRun(*topo_, Jobs(), baseline);

  CoRunOptions saba;
  saba.policy = PolicyKind::kSaba;
  saba.table = table_;
  const CoRunResult managed = RunCoRun(*topo_, Jobs(), saba);
  EXPECT_GT(GeometricMean(Speedups(base, managed)), 1.0);
}

TEST_F(SpineLeafIntegrationTest, DistributedControllerCloseToCentralized) {
  CoRunOptions central;
  central.policy = PolicyKind::kSaba;
  central.table = table_;
  const CoRunResult c = RunCoRun(*topo_, Jobs(), central);

  CoRunOptions dist = central;
  dist.policy = PolicyKind::kSabaDistributed;
  const CoRunResult d = RunCoRun(*topo_, Jobs(), dist);

  // §5.4/§8.4: the offline-mapped distributed controller lands within a few
  // percent of the centralized one.
  const double ratio = GeometricMean(Speedups(c, d));
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

// --- Catalog-wide property sweeps -------------------------------------------

class CatalogPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const WorkloadSpec& spec() const {
    return HiBenchCatalog()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(CatalogPropertyTest, SlowdownMonotoneInBandwidth) {
  double previous = -1;
  for (double fraction : {1.0, 0.75, 0.5, 0.25, 0.15}) {
    const double t = OfflineProfiler::RunIsolated(spec(), fraction, 8);
    EXPECT_GE(t, previous - 1e-9) << spec().name << " at " << fraction;
    previous = t;
  }
}

TEST_P(CatalogPropertyTest, ScalingPreservesStageCount) {
  for (double dataset : {0.1, 10.0}) {
    for (int nodes : {4, 32}) {
      const WorkloadSpec scaled = ScaleWorkload(spec(), dataset, nodes);
      EXPECT_EQ(scaled.stages.size(), spec().stages.size());
      EXPECT_EQ(scaled.reference_nodes, nodes);
      for (const StageSpec& stage : scaled.stages) {
        EXPECT_GE(stage.compute_seconds, 0);
        EXPECT_GE(stage.bits_per_peer, 0);
      }
    }
  }
}

TEST_P(CatalogPropertyTest, ProfiledModelPredictsItsOwnSamples) {
  ProfilerOptions options;
  options.noise_sigma = 0;
  const ProfileResult result = OfflineProfiler(options).Profile(spec());
  EXPECT_GT(result.r_squared, 0.9) << spec().name;
  // Prediction at the anchor points stays within ~20% of the measurement.
  for (const Sample& s : result.samples) {
    if (s.b >= 0.25) {
      EXPECT_NEAR(result.model.SlowdownAt(s.b), std::max(1.0, s.d),
                  0.2 * s.d + 0.05)
          << spec().name << " at b=" << s.b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CatalogPropertyTest, ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return HiBenchCatalog()[static_cast<size_t>(info.param)].name;
                         });

}  // namespace
}  // namespace saba
