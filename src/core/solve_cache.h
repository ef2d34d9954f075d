// Signature-keyed memoization of the controller's Eq-2 solves (§5.1, §8.6).
//
// Eq 2's solution depends only on the *multiset* of sensitivity models at a
// port (plus the solver options, which are fixed per controller), yet in a
// spine-leaf fabric thousands of ports carry the same application mix — a
// re-clustering marks every active port dirty and, without deduplication,
// re-solves the identical problem once per port. The cache canonicalizes
// each solve input into a signature (the model coefficient vectors in
// lexicographic order), memoizes the solved weights per signature, and hands
// the caller the permutation between port order and canonical order.
//
// Exactness contract (DESIGN.md §7.2): the solve itself must be a pure
// function of the signature — the controller always solves in canonical
// order and seeds the solver's Rng from Rng::ForStream(seed, signature.hash)
// — so a cache hit returns bit-identical weights to the solve it replaced,
// and cache-on and cache-off controllers program bit-identical switch state
// (tests/controller_cache_test.cc enforces this under randomized churn).

#ifndef SRC_CORE_SOLVE_CACHE_H_
#define SRC_CORE_SOLVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/sensitivity.h"

namespace saba {

// FNV-1a over raw bytes; the building block for all signature hashing here
// (stable across runs — it hashes the coefficients' bit patterns).
uint64_t HashBytes(uint64_t h, const void* data, size_t size);
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

// A canonicalized Eq-2 input. `order[k]` is the original (port-order) index
// of the k-th model in canonical order; the stable sort makes the
// permutation deterministic even with duplicate models.
struct PortSignature {
  // Flattened encoding: model count, then per model (in canonical order) its
  // coefficient count followed by the coefficients.
  std::vector<double> key;
  // 64-bit FNV-1a of `key`'s bit patterns; seeds the solver's Rng stream on
  // the non-convex path and buckets the cache.
  uint64_t hash = 0;
  std::vector<uint32_t> order;
};

// Builds the canonical signature of `models` into *sig, reusing its buffers
// (each PortSolveContext keeps one PortSignature as scratch).
void BuildPortSignature(const std::vector<const SensitivityModel*>& models, PortSignature* sig);

// The memo itself: signature -> solved weights in canonical order. One
// instance per PortSolveContext — a CentralizedController owns one, a
// DistributedController owns one per shard — and solver options are fixed
// per controller, so they need not be part of the key. Per-shard instances
// need no coherence protocol: exactness (below) means a miss on one shard
// re-derives bit-for-bit what a hit on another returns, so sharding only
// shifts the hit/miss split, never the programmed state (DESIGN.md §7.3).
// Entries never go stale — the signature encodes the entire solver input —
// so the cache persists across re-clusterings and is only cleared to bound
// memory.
//
// A disabled cache never reuses an entry (Find always misses), but Insert
// still stores and returns the weights, so the caller has one path in both
// modes.
class Eq2SolveCache {
 public:
  explicit Eq2SolveCache(bool enabled) : enabled_(enabled) {}

  // The cached canonical-order weights for `sig`, or nullptr on a miss
  // (always a miss when disabled).
  const std::vector<double>* Find(const PortSignature& sig) const;

  // Stores the solved weights for `sig` (canonical order) and returns the
  // stored copy, which stays valid until the next Insert.
  const std::vector<double>& Insert(const PortSignature& sig, std::vector<double> weights);

 private:
  struct Key {
    std::vector<double> flat;
    uint64_t hash = 0;
  };
  // Heterogeneous (C++20) hash/equality so lookups probe with the caller's
  // PortSignature directly — no per-lookup key copy on the hit path.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const Key& k) const { return static_cast<size_t>(k.hash); }
    size_t operator()(const PortSignature& s) const { return static_cast<size_t>(s.hash); }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && a.flat == b.flat;
    }
    bool operator()(const PortSignature& s, const Key& k) const {
      return s.hash == k.hash && s.key == k.flat;
    }
    bool operator()(const Key& k, const PortSignature& s) const { return operator()(s, k); }
  };

  // Memory backstop: signatures are tiny (a few dozen doubles) but scenario
  // sweeps construct many controllers; a runaway mix set clears rather than
  // grows without bound. Never hit by the paper-scale workloads.
  static constexpr size_t kMaxEntries = 1 << 16;

  bool enabled_;
  // Lookup-only memo (find/insert/clear); results depend on the signature
  // key alone, never on bucket order — the §7.2 exactness argument.
  // saba-lint: unordered-iter-ok(lookup-only memo, never iterated)
  std::unordered_map<Key, std::vector<double>, KeyHash, KeyEq> map_;
};

}  // namespace saba

#endif  // SRC_CORE_SOLVE_CACHE_H_
