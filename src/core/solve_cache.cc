#include "src/core/solve_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace saba {

uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

void BuildPortSignature(const std::vector<const SensitivityModel*>& models, PortSignature* sig) {
  assert(!models.empty());
  const size_t n = models.size();

  sig->order.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    sig->order[i] = i;
  }
  // Stable lexicographic sort over the coefficient vectors: ties (duplicate
  // models — e.g. many instances of one workload) keep ascending port order,
  // so the permutation is a pure function of the input list.
  std::stable_sort(sig->order.begin(), sig->order.end(), [&models](uint32_t a, uint32_t b) {
    return models[a]->polynomial().coefficients() < models[b]->polynomial().coefficients();
  });

  sig->key.clear();
  sig->key.push_back(static_cast<double>(n));
  for (uint32_t idx : sig->order) {
    const std::vector<double>& coeffs = models[idx]->polynomial().coefficients();
    sig->key.push_back(static_cast<double>(coeffs.size()));
    sig->key.insert(sig->key.end(), coeffs.begin(), coeffs.end());
  }
  // Word-wise FNV over the coefficients' bit patterns: one multiply-xor per
  // double instead of eight (byte-wise FNV's serial dependency chain was the
  // dominant cost of a cache hit at 48-app ports). Dispersion per byte is
  // weaker, but the map compares full keys on collision anyway.
  uint64_t h = kFnvOffsetBasis;
  for (double d : sig->key) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ull;
  }
  sig->hash = h;
}

const std::vector<double>* Eq2SolveCache::Find(const PortSignature& sig) const {
  if (!enabled_) {
    return nullptr;
  }
  auto it = map_.find(sig);  // Heterogeneous: no key materialization.
  return it == map_.end() ? nullptr : &it->second;
}

const std::vector<double>& Eq2SolveCache::Insert(const PortSignature& sig,
                                                 std::vector<double> weights) {
  if (map_.size() >= kMaxEntries) {
    map_.clear();
  }
  // A disabled cache re-solves every port, so it may overwrite its own entry.
  return map_.insert_or_assign(Key{sig.key, sig.hash}, std::move(weights)).first->second;
}

}  // namespace saba
