#include "src/baselines/homa_policy.h"

#include <cassert>
#include <cmath>

namespace saba {

HomaScheduler::HomaScheduler(FlowSimulator* flow_sim, HomaConfig config)
    : flow_sim_(flow_sim), config_(config) {
  assert(flow_sim != nullptr);
  assert(config_.num_priorities >= 2);
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

int HomaScheduler::PriorityFor(double remaining_bits) const {
  // Messages at or below this many bits get graduated priorities; larger ones
  // share the last class. 10 KB, per the paper.
  constexpr double kCutoffBits = 10e3 * 8;
  if (remaining_bits > kCutoffBits) {
    return config_.num_priorities - 1;
  }
  // Geometric size buckets over (0, cutoff]: the smallest messages map to
  // class 0. With P-1 graduated classes, bucket by log2 of the fraction of
  // the cutoff.
  const int graduated = config_.num_priorities - 1;
  const double frac = remaining_bits / kCutoffBits;  // (0, 1]
  const int bucket = static_cast<int>(std::floor(-std::log2(frac)));
  const int cls = graduated - 1 - bucket;
  return cls < 0 ? 0 : cls;
}

void HomaScheduler::RefreshPriorities() {
  flow_sim_->ForEachActiveFlow([this](const ActiveFlow& flow) {
    flow_sim_->SetFlowPriority(flow.id, PriorityFor(flow.remaining_bits));
  });
}

}  // namespace saba
