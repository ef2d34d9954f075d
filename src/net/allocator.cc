#include "src/net/allocator.h"

#include "src/net/allocation_engine.h"

namespace saba {

void BandwidthAllocator::Allocate(const std::vector<ActiveFlow*>& flows, const Network& net) const {
  AllocateFromScratch(flows, net, discipline_, per_app_weights_);
}

}  // namespace saba
