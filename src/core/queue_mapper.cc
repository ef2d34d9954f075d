#include "src/core/queue_mapper.h"

#include <algorithm>
#include <cassert>

namespace saba {

QueueMapper::QueueMapper(const std::vector<SensitivityModel>& pl_models, bool memoize)
    : hierarchy_([&pl_models] {
        assert(!pl_models.empty());
        size_t dim = 0;
        for (const SensitivityModel& model : pl_models) {
          dim = std::max(dim, model.polynomial().degree() + 1);
        }
        std::vector<std::vector<double>> points;
        points.reserve(pl_models.size());
        for (const SensitivityModel& model : pl_models) {
          points.push_back(model.CoefficientVector(dim));
        }
        return HierarchicalClustering::Build(points);
      }()),
      memoize_(memoize) {
  assert(hierarchy_.num_leaves() <= 32 && "PL bitmask key assumes <= 32 PLs");
}

QueueMapper::PortMapping QueueMapper::MapPort(const std::vector<int>& present_pls,
                                              int max_queues) const {
  assert(!present_pls.empty());
  assert(max_queues >= 1);

  std::vector<size_t> leaves;
  leaves.reserve(present_pls.size());
  for (int pl : present_pls) {
    assert(pl >= 0 && static_cast<size_t>(pl) < hierarchy_.num_leaves());
    leaves.push_back(static_cast<size_t>(pl));
  }

  const HierarchicalClustering::Grouping grouping =
      hierarchy_.GroupSubset(leaves, static_cast<size_t>(max_queues));

  PortMapping mapping;
  mapping.level = grouping.level;
  mapping.pl_to_queue.assign(hierarchy_.num_leaves(), -1);
  mapping.queue_models.reserve(grouping.groups.size());
  for (size_t queue = 0; queue < grouping.groups.size(); ++queue) {
    for (size_t leaf : grouping.groups[queue]) {
      mapping.pl_to_queue[leaf] = static_cast<int>(queue);
    }
    mapping.queue_models.emplace_back(Polynomial(grouping.centroids[queue]));
  }
  return mapping;
}

const QueueMapper::PortMapping& QueueMapper::MapPortMemo(const std::vector<int>& present_pls,
                                                         int max_queues) const {
  assert(std::is_sorted(present_pls.begin(), present_pls.end()) &&
         "memoized mapping requires the canonical (ascending) PL order");
  uint64_t key = static_cast<uint64_t>(max_queues) << 32;
  for (int pl : present_pls) {
    key |= 1ull << pl;
  }
  if (memoize_) {
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_hits_;
      return it->second;
    }
  }
  // References into the map stay valid across rehashes (node-based). Without
  // memoization a repeated key rewrites its entry with the same mapping.
  return memo_.insert_or_assign(key, MapPort(present_pls, max_queues)).first->second;
}

}  // namespace saba
