// Deterministic random number generation for experiments.
//
// Every source of randomness in the repository flows through Rng, seeded
// explicitly by each benchmark, so that every table and figure is exactly
// reproducible from the seed printed in its header. The generator is
// xoshiro256** seeded through SplitMix64 (the construction recommended by the
// xoshiro authors); it is fast, has a 2^256-1 period, and passes BigCrush.

#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace saba {

// Deterministic PRNG with convenience distributions. Not thread-safe; give
// each thread (or each experiment repetition) its own instance from
// ForStream() so streams are independent.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Next raw 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform01();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (deterministic, no cached spare so the
  // stream position is easy to reason about).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  // True with probability p.
  bool Bernoulli(double p);

  // Returns an index in [0, weights.size()) with probability proportional to
  // weights[i]. Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  // Uniformly chooses one element. Requires a non-empty vector or array.
  template <typename Container>
  const auto& Choice(const Container& v) {
    assert(std::size(v) > 0);
    return v[static_cast<size_t>(UniformInt(0, static_cast<int64_t>(std::size(v)) - 1))];
  }

  // Seed of stream `stream_index` under `root_seed`: both words are pushed
  // through SplitMix64, so adjacent indices yield uncorrelated seeds. This is
  // the seed-split contract the parallel sweep engine relies on (see
  // DESIGN.md "Determinism & threading model"): a task's stream depends only
  // on (root_seed, task_index), never on thread count or execution order.
  static uint64_t StreamSeed(uint64_t root_seed, uint64_t stream_index);

  // Rng seeded with StreamSeed(root_seed, stream_index).
  static Rng ForStream(uint64_t root_seed, uint64_t stream_index);

 private:
  uint64_t state_[4];
};

}  // namespace saba

#endif  // SRC_SIM_RNG_H_
