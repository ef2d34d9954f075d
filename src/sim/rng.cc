#include "src/sim/rng.h"

#include <cmath>
#include <numbers>

namespace saba {
namespace {

// SplitMix64: used only to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(&sm);
  }
}

uint64_t Rng::Next() {
  // xoshiro256**
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform01() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * Uniform01();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; discard the second variate to keep the stream simple.
  double u1 = Uniform01();
  double u2 = Uniform01();
  while (u1 <= 0.0) {
    u1 = Uniform01();
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Exponential(double rate) {
  assert(rate > 0);
  double u = Uniform01();
  while (u <= 0.0) {
    u = Uniform01();
  }
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return Uniform01() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  assert(total > 0);
  double x = Uniform(0, total);
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) {
      return i;
    }
  }
  return weights.size() - 1;  // Guard against accumulated rounding.
}

uint64_t Rng::StreamSeed(uint64_t root_seed, uint64_t stream_index) {
  // Hash the root before mixing in the index so that nearby roots do not
  // produce shifted copies of the same stream family, then hash again so
  // adjacent indices land far apart.
  uint64_t x = root_seed;
  const uint64_t root_hash = SplitMix64(&x);
  x = root_hash ^ (stream_index + 0x9e3779b97f4a7c15ULL);
  return SplitMix64(&x);
}

Rng Rng::ForStream(uint64_t root_seed, uint64_t stream_index) {
  return Rng(StreamSeed(root_seed, stream_index));
}

}  // namespace saba
