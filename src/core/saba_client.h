// The Saba library (paper §6, §7.3): the ~350-LOC shim applications link
// against. It implements the workload runtime's AppNetworkPolicy by
// forwarding the registration and connection lifecycle to the controller
// over a (simulated) RPC channel, and hands applications their current
// service level for new connections.

#ifndef SRC_CORE_SABA_CLIENT_H_
#define SRC_CORE_SABA_CLIENT_H_

#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/workload/app_runtime.h"

namespace saba {

class SabaClient : public AppNetworkPolicy {
 public:
  explicit SabaClient(ControllerInterface* controller);

  // AppNetworkPolicy:
  int OnAppStart(AppId app, const std::string& workload_name,
                 const std::vector<NodeId>& hosts) override;
  void OnConnectionOpen(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void OnConnectionClose(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void OnAppFinish(AppId app) override;
  int ServiceLevelFor(AppId app) const override;

 private:
  ControllerInterface* controller_;
};

}  // namespace saba

#endif  // SRC_CORE_SABA_CLIENT_H_
