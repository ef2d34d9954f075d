#include "src/core/saba_client.h"

#include <gtest/gtest.h>

#include <vector>

namespace saba {
namespace {

// Records every controller call; returns a fixed, then updated SL.
class FakeController : public ControllerInterface {
 public:
  int AppRegister(AppId app, const std::string& workload) override {
    registered.emplace_back(app, workload);
    sls[app] = next_sl;
    return next_sl;
  }
  void ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t salt) override {
    creates.push_back({app, src, dst, salt});
  }
  void ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t salt) override {
    destroys.push_back({app, src, dst, salt});
  }
  void AppDeregister(AppId app) override { deregistered.push_back(app); }
  int CurrentServiceLevel(AppId app) const override { return sls.at(app); }

  struct ConnCall {
    AppId app;
    NodeId src;
    NodeId dst;
    uint64_t salt;
  };
  std::vector<std::pair<AppId, std::string>> registered;
  std::vector<ConnCall> creates;
  std::vector<ConnCall> destroys;
  std::vector<AppId> deregistered;
  std::map<AppId, int> sls;
  int next_sl = 3;
};

TEST(SabaClientTest, ForwardsFullLifecycle) {
  FakeController controller;
  SabaClient client(&controller);

  const int sl = client.OnAppStart(7, "LR", {0, 1, 2});
  EXPECT_EQ(sl, 3);
  ASSERT_EQ(controller.registered.size(), 1u);
  EXPECT_EQ(controller.registered[0].first, 7);
  EXPECT_EQ(controller.registered[0].second, "LR");

  client.OnConnectionOpen(7, 0, 1, 42);
  ASSERT_EQ(controller.creates.size(), 1u);
  EXPECT_EQ(controller.creates[0].src, 0);
  EXPECT_EQ(controller.creates[0].dst, 1);
  EXPECT_EQ(controller.creates[0].salt, 42u);

  client.OnConnectionClose(7, 0, 1, 42);
  ASSERT_EQ(controller.destroys.size(), 1u);

  client.OnAppFinish(7);
  EXPECT_EQ(controller.deregistered, std::vector<AppId>{7});
}

TEST(SabaClientTest, ServiceLevelTracksControllerReclustering) {
  FakeController controller;
  SabaClient client(&controller);
  client.OnAppStart(7, "LR", {0, 1});
  EXPECT_EQ(client.ServiceLevelFor(7), 3);
  controller.sls[7] = 5;  // Controller re-clustered.
  EXPECT_EQ(client.ServiceLevelFor(7), 5);
}

}  // namespace
}  // namespace saba
