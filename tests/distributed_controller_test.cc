#include "src/core/distributed_controller.h"

#include <gtest/gtest.h>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

SensitivityTable MakeTable() {
  SensitivityTable table;
  SensitivityEntry steep;
  steep.model = SensitivityModel{Polynomial({5.0, -4.0})};
  table.Put("steep", steep);
  SensitivityEntry medium;
  medium.model = SensitivityModel{Polynomial({2.5, -1.5})};
  table.Put("medium", medium);
  SensitivityEntry flat;
  flat.model = SensitivityModel{Polynomial({1.2, -0.2})};
  table.Put("flat", flat);
  return table;
}

TEST(MappingDatabaseTest, BuildsPlPerWorkload) {
  const SensitivityTable table = MakeTable();
  const MappingDatabase db = MappingDatabase::Build(table, /*num_pls=*/3, /*seed=*/1);
  EXPECT_EQ(db.workload_to_pl.size(), 3u);
  EXPECT_EQ(db.pl_models.size(), 3u);
  // Distinct sensitivities with enough PLs get distinct PLs.
  EXPECT_NE(db.PlForWorkload("steep"), db.PlForWorkload("flat"));
}

TEST(MappingDatabaseTest, FewerPlsGroupNeighbours) {
  const SensitivityTable table = MakeTable();
  const MappingDatabase db = MappingDatabase::Build(table, /*num_pls=*/2, /*seed=*/1);
  EXPECT_EQ(db.pl_models.size(), 2u);
  // steep and flat must not share when only they could separate.
  EXPECT_NE(db.PlForWorkload("steep"), db.PlForWorkload("flat"));
}

TEST(MappingDatabaseTest, UnknownWorkloadMapsToNearestInsensitiveCentroid) {
  const SensitivityTable table = MakeTable();
  const MappingDatabase db = MappingDatabase::Build(table, 3, 1);
  EXPECT_EQ(db.PlForWorkload("unknown"), db.PlForWorkload("flat"));
}

class DistributedControllerTest : public ::testing::Test {
 protected:
  DistributedControllerTest()
      : table_(MakeTable()),
        network_(BuildSpineLeaf({.num_spine = 2,
                                 .num_leaf = 2,
                                 .num_tor = 2,
                                 .hosts_per_tor = 2,
                                 .num_pods = 2,
                                 .host_link_bps = Gbps64(56),
                                 .tor_leaf_bps = Gbps64(56),
                                 .leaf_spine_bps = Gbps64(56)}),
                 /*default_queues=*/8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  void Settle() { scheduler_.RunUntil(scheduler_.Now() + 1e-9); }

  SensitivityTable table_;
  EventScheduler scheduler_;
  Network network_;
  WfqMaxMinAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(DistributedControllerTest, StaticRegistrationUsesDatabasePl) {
  const MappingDatabase db = MappingDatabase::Build(table_, 3, 1);
  DistributedController controller(&network_, &flow_sim_, &table_, db, {});
  const int pl = controller.AppRegister(1, "steep");
  EXPECT_EQ(pl, db.PlForWorkload("steep"));
  EXPECT_EQ(controller.CurrentServiceLevel(1), pl);
  // Registrations never trigger re-clustering (§5.4).
  controller.AppRegister(2, "flat");
  controller.AppRegister(3, "medium");
  EXPECT_EQ(controller.stats().pl_reclusterings, 0u);
}

TEST_F(DistributedControllerTest, SameWorkloadAlwaysSamePl) {
  const MappingDatabase db = MappingDatabase::Build(table_, 3, 1);
  DistributedController controller(&network_, &flow_sim_, &table_, db, {});
  const int a = controller.AppRegister(1, "medium");
  const int b = controller.AppRegister(2, "medium");
  EXPECT_EQ(a, b);
}

TEST_F(DistributedControllerTest, PortWeightsMatchCentralizedMath) {
  // Eq 2 is per-port, so for a fixed app set at a port the distributed
  // controller solves the same problem as the centralized one.
  const MappingDatabase db = MappingDatabase::Build(table_, 3, 1);
  DistributedController dist(&network_, &flow_sim_, &table_, db, {});
  dist.AppRegister(1, "steep");
  dist.AppRegister(2, "flat");
  dist.ConnCreate(1, 0, 1, 2);
  dist.ConnCreate(2, 2, 1, 2);
  Settle();

  Network central_net(network_.topology(), 8);
  CentralizedController central(&central_net, nullptr, &table_, {});
  central.AppRegister(1, "steep");
  central.AppRegister(2, "flat");
  central.ConnCreate(1, 0, 1, 2);
  central.ConnCreate(2, 2, 1, 2);

  // Compare weights on the shared ingress of host 1.
  const auto& path = network_.router().Route(2, 1, 2);
  const LinkId shared = path.back();
  EXPECT_NEAR(dist.AppWeightAtPort(shared, 2), central.AppWeightAtPort(shared, 2), 1e-9);
}

TEST_F(DistributedControllerTest, DeregisterKeepsDatabaseGeometry) {
  const MappingDatabase db = MappingDatabase::Build(table_, 3, 1);
  DistributedController controller(&network_, &flow_sim_, &table_, db, {});
  controller.AppRegister(1, "steep");
  controller.AppRegister(2, "flat");
  controller.AppDeregister(1);
  EXPECT_EQ(controller.stats().pl_reclusterings, 0u);
  // Remaining app keeps its database PL.
  EXPECT_EQ(controller.CurrentServiceLevel(2), db.PlForWorkload("flat"));
}

}  // namespace
}  // namespace saba
