// PL-to-queue mapping (paper §5.3.2).
//
// Different switches have different queue counts, and different ports see
// different subsets of PLs, so the PL-to-queue mapping must be computed per
// port. Saba avoids re-clustering at every port by precomputing one
// agglomerative hierarchy over the PL sensitivity models (midpoint merging);
// per port, it walks the hierarchy from the finest level until the PLs
// present at that port occupy at most Q clusters, then maps each cluster to
// one queue.

#ifndef SRC_CORE_QUEUE_MAPPER_H_
#define SRC_CORE_QUEUE_MAPPER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/sensitivity.h"
#include "src/numerics/hierarchical.h"

namespace saba {

class QueueMapper {
 public:
  // Builds the hierarchy over the PL centroid models (from the PL mapper).
  // `memoize = false` (the controller's solve_cache=false mode, kept so
  // cache-on/off equivalence can be tested) makes MapPortMemo recompute on
  // every call.
  explicit QueueMapper(const std::vector<SensitivityModel>& pl_models, bool memoize = true);

  struct PortMapping {
    // pl_to_queue[p]: queue index for PL p, or -1 if PL p is not present at
    // this port. Indexed by PL id over all PLs the mapper was built with.
    std::vector<int> pl_to_queue;
    // Sensitivity model representing each queue (the dendrogram centroid of
    // the cluster mapped to it). queue_models.size() == number of queues
    // actually used (<= max_queues).
    std::vector<SensitivityModel> queue_models;
    // The hierarchy level used (0 = all PLs distinct).
    size_t level = 0;
  };

  // Maps the PLs present at a port onto at most `max_queues` queues.
  // `present_pls` must be non-empty, duplicate-free, and within range.
  PortMapping MapPort(const std::vector<int>& present_pls, int max_queues) const;

  // Memoized MapPort for the controller's port-recompute hot path.
  // `present_pls` must additionally be sorted ascending (the controller's
  // canonical form), so the (PL bitmask, queue budget) pair fully keys the
  // result. The cache lives with the mapper — re-clustering rebuilds the
  // mapper, which is the epoch invalidation (DESIGN.md §7.2). Without
  // memoization the call never reuses an entry, but still stores what it
  // computed, so the caller has one path in both modes. The returned
  // reference stays valid until the mapper is destroyed.
  const PortMapping& MapPortMemo(const std::vector<int>& present_pls, int max_queues) const;

  uint64_t memo_hits() const { return memo_hits_; }

 private:
  HierarchicalClustering hierarchy_;
  bool memoize_;
  // (PL bitmask | max_queues << 32) -> mapping. PL ids fit 32 bits with room
  // to spare (kNumServiceLevels == 16 is the fabric-wide ceiling).
  // saba-lint: unordered-iter-ok(lookup-only memo, never iterated)
  mutable std::unordered_map<uint64_t, PortMapping> memo_;
  mutable uint64_t memo_hits_ = 0;
};

}  // namespace saba

#endif  // SRC_CORE_QUEUE_MAPPER_H_
