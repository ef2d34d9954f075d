#include "src/baselines/pfabric_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace saba {
namespace {

// Priority classes, and the geometric size buckets' span: one MTU to 1 TB
// (everything real is inside).
constexpr int kNumPriorities = 32;
constexpr double kMinBits = 8.0 * 1500;
constexpr double kMaxBits = 8e12;

}  // namespace

PFabricScheduler::PFabricScheduler(FlowSimulator* flow_sim)
    : flow_sim_(flow_sim),
      log_min_(std::log(kMinBits)),
      log_range_(std::log(kMaxBits) - log_min_) {
  assert(flow_sim != nullptr);
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

int PFabricScheduler::PriorityFor(double remaining_bits) const {
  if (remaining_bits <= kMinBits) {
    return 0;
  }
  const double frac = (std::log(remaining_bits) - log_min_) / log_range_;
  const int cls = static_cast<int>(frac * (kNumPriorities - 1)) + 1;
  return std::clamp(cls, 0, kNumPriorities - 1);
}

void PFabricScheduler::RefreshPriorities() {
  flow_sim_->ForEachActiveFlow([this](const ActiveFlow& flow) {
    flow_sim_->SetFlowPriority(flow.id, PriorityFor(flow.remaining_bits));
  });
}

}  // namespace saba
