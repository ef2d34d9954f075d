#include "src/core/saba_client.h"

#include <cassert>

namespace saba {

SabaClient::SabaClient(ControllerInterface* controller) : controller_(controller) {
  assert(controller != nullptr);
}

int SabaClient::OnAppStart(AppId app, const std::string& workload_name,
                           const std::vector<NodeId>&) {
  return controller_->AppRegister(app, workload_name);
}

void SabaClient::OnConnectionOpen(AppId app, NodeId src, NodeId dst, uint64_t path_salt) {
  controller_->ConnCreate(app, src, dst, path_salt);
}

void SabaClient::OnConnectionClose(AppId app, NodeId src, NodeId dst, uint64_t path_salt) {
  controller_->ConnDestroy(app, src, dst, path_salt);
}

void SabaClient::OnAppFinish(AppId app) { controller_->AppDeregister(app); }

int SabaClient::ServiceLevelFor(AppId app) const { return controller_->CurrentServiceLevel(app); }

}  // namespace saba
