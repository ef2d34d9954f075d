#include "src/core/sensitivity.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace saba {

double SensitivityModel::SlowdownAt(double b) const {
  const double clamped = std::clamp(b, kMinBandwidthFraction, 1.0);
  return std::max(1.0, poly_.Evaluate(clamped));
}

std::vector<double> SensitivityModel::CoefficientVector(size_t size) const {
  assert(size > poly_.degree());
  std::vector<double> v(size, 0.0);
  for (size_t i = 0; i < size; ++i) {
    v[i] = poly_.coefficient(i);
  }
  return v;
}

void SensitivityTable::Put(const std::string& workload, SensitivityEntry entry) {
  entries_[workload] = std::move(entry);
}

const SensitivityEntry* SensitivityTable::Find(const std::string& workload) const {
  auto it = entries_.find(workload);
  return it == entries_.end() ? nullptr : &it->second;
}

SensitivityModel SensitivityTable::ModelOrDefault(const std::string& workload) const {
  const SensitivityEntry* entry = Find(workload);
  return entry != nullptr ? entry->model : SensitivityModel();
}

std::string SensitivityTable::ToCsv() const {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, entry] : entries_) {
    os << name << ',' << entry.r_squared << ',' << entry.base_completion_seconds;
    for (double c : entry.model.polynomial().coefficients()) {
      os << ',' << c;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace saba
