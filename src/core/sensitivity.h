// Bandwidth-sensitivity models and the sensitivity table (paper §4, Eq 1).
//
// A sensitivity model maps an available-bandwidth fraction b in (0, 1] to the
// application's predicted slowdown D(b) relative to unthrottled execution.
// The profiler produces one per workload by polynomial regression; the
// controller stores them in a SensitivityTable keyed by workload name and
// evaluates them when solving Eq 2.

#ifndef SRC_CORE_SENSITIVITY_H_
#define SRC_CORE_SENSITIVITY_H_

#include <map>
#include <string>
#include <vector>

#include "src/numerics/polynomial.h"
#include "src/numerics/regression.h"

namespace saba {

// Bandwidth fractions below this are never allocated or evaluated; raw
// polynomial fits explode as b -> 0 and no WFQ weight is ever this small.
inline constexpr double kMinBandwidthFraction = 0.02;

class SensitivityModel {
 public:
  // Default: a perfectly insensitive application (D(b) == 1 everywhere).
  // Used for workloads that were never profiled.
  SensitivityModel() : poly_(std::vector<double>{1.0}) {}

  explicit SensitivityModel(Polynomial poly) : poly_(std::move(poly)) {}

  // Predicted slowdown at bandwidth fraction `b`. The input is clamped to
  // [kMinBandwidthFraction, 1] and the output to >= 1 (a sensible model
  // never predicts speedup from losing bandwidth; clamping guards against
  // extrapolation artifacts of the raw fit).
  double SlowdownAt(double b) const;

  // Raw polynomial (for the optimizer, which needs derivatives).
  const Polynomial& polynomial() const { return poly_; }

  // Coefficients as a fixed-length vector, zero-padded to `size` entries —
  // the feature vector used for PL clustering (§5.3.1). Requires size >
  // poly degree.
  std::vector<double> CoefficientVector(size_t size) const;

 private:
  Polynomial poly_;
};

// A profiled workload's record in the sensitivity table.
struct SensitivityEntry {
  SensitivityModel model;
  double r_squared = 0;
  // The profiling samples the model was fitted to (kept for diagnostics and
  // the model-fit figures).
  std::vector<Sample> samples;
  // Completion time at 100% bandwidth in the profiling configuration.
  double base_completion_seconds = 0;
};

// Workload name -> sensitivity entry. The offline profiler writes it; the
// controller reads it (§4.1 step 3, §5).
class SensitivityTable {
 public:
  void Put(const std::string& workload, SensitivityEntry entry);

  // nullptr if the workload was never profiled.
  const SensitivityEntry* Find(const std::string& workload) const;

  // The model for a workload, or the insensitive default when unknown.
  SensitivityModel ModelOrDefault(const std::string& workload) const;

  size_t size() const { return entries_.size(); }
  const std::map<std::string, SensitivityEntry>& entries() const { return entries_; }

  // CSV export, as examples/profiler_tool prints it: one row per workload in
  // ascending name order — name, r_squared, base seconds, then the
  // polynomial coefficients (ascending degree), every field at precision 17.
  std::string ToCsv() const;

 private:
  std::map<std::string, SensitivityEntry> entries_;
};

}  // namespace saba

#endif  // SRC_CORE_SENSITIVITY_H_
