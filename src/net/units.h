// Units for network quantities.
//
// Data volumes are double-precision bits. Bandwidth exists in two
// representations with an explicit boundary between them:
//
//  * Bps64 — fixed-point int64 bits per second. Link capacities and every
//    allocated flow rate are Bps64: the allocation core water-fills in pure
//    integer arithmetic, so its results are exact and independent of
//    summation / iteration order (DESIGN.md §7.1). One unit = one bit/s,
//    which is far below every tolerance in the simulator (a 56 Gb/s testbed
//    link is 5.6e10 units).
//  * double bps — used only where fluid ODE integration genuinely needs
//    continuous math (draining remaining_bits over elapsed time, efficiency
//    curves, packet serialization delays). Conversions into Bps64 go through
//    RoundBps below — the single, centralized rounding policy — never through
//    ad-hoc casts.
//
// Rounding policy (pinned by tests/units_test.cc, do not change silently):
// round to nearest; ties away from zero; NaN is a programming error
// (asserts); out-of-range magnitudes saturate to the int64 limits.
//
// Weights (WFQ queue weights, per-flow intra weights) are quantized onto a
// fixed 2^20 grid by WeightUnits so that weight sums and weighted shares are
// integer math too. The grid is fine enough that every configured weight in
// the repo (0.0625, 0.15, 1.0, 3.0, rng-uniform [0.1, 2.0]) keeps more than
// six significant digits; values below one grid step clamp up to 1 so a
// positive weight never becomes 0.

#ifndef SRC_NET_UNITS_H_
#define SRC_NET_UNITS_H_

#include <cassert>
#include <cstdint>

namespace saba {

// Fixed-point bandwidth: whole bits per second in an int64.
using Bps64 = int64_t;

inline constexpr Bps64 kBps64Max = INT64_MAX;
inline constexpr Bps64 kBps64Min = INT64_MIN;

// Largest double guaranteed to convert into int64 without overflow (2^63
// rounds up in double, so the threshold is the previous representable value).
inline constexpr double kBps64SaturationThreshold = 9223372036854774784.0;

// THE conversion from continuous bps to fixed point: nearest, ties away from
// zero, saturating. Every double->Bps64 crossing in the repo routes here.
inline constexpr Bps64 RoundBps(double bps) {
  assert(bps == bps && "rate must not be NaN");
  if (bps >= kBps64SaturationThreshold) {
    return kBps64Max;
  }
  if (bps <= -kBps64SaturationThreshold) {
    return kBps64Min;
  }
  return bps >= 0 ? static_cast<Bps64>(bps + 0.5) : -static_cast<Bps64>(-bps + 0.5);
}

inline constexpr double BpsToDouble(Bps64 bps) { return static_cast<double>(bps); }

// Fixed-point rate literals (link capacities, configured bandwidths).
inline constexpr Bps64 Bps64Of(double x) { return RoundBps(x); }
inline constexpr Bps64 Kbps64(double x) { return RoundBps(x * 1e3); }
inline constexpr Bps64 Mbps64(double x) { return RoundBps(x * 1e6); }
inline constexpr Bps64 Gbps64(double x) { return RoundBps(x * 1e9); }

// Continuous-rate helpers (tolerances, expectations, fluid math).
inline constexpr double Mbps(double x) { return x * 1e6; }
inline constexpr double Gbps(double x) { return x * 1e9; }

// Volumes (bits).
inline constexpr double Bits(double x) { return x; }
inline constexpr double Bytes(double x) { return x * 8.0; }
inline constexpr double Kilobytes(double x) { return x * 8e3; }
inline constexpr double Megabytes(double x) { return x * 8e6; }
inline constexpr double Gigabytes(double x) { return x * 8e9; }

// The packet size of the packet-level references (wrr_reference.h,
// packet_sim.h): one MTU.
inline constexpr double kPacketBits = Bytes(1500);

// Scheduling weights on a fixed 2^20 grid. Weight sums stay below 2^63 for
// any realistic flow count (the allocator asserts w <= 2^20, so a single
// quantized weight is at most 2^40 and 4M flows sum below 2^62).
inline constexpr int64_t kWeightScale = 1 << 20;

inline constexpr int64_t WeightUnits(double weight) {
  assert(weight > 0 && "scheduling weights must be strictly positive");
  assert(weight <= static_cast<double>(kWeightScale) &&
         "scheduling weights above 2^20 would risk overflowing weight sums");
  const int64_t units = static_cast<int64_t>(weight * static_cast<double>(kWeightScale) + 0.5);
  return units < 1 ? 1 : units;
}

}  // namespace saba

#endif  // SRC_NET_UNITS_H_
