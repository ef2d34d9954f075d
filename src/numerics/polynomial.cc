#include "src/numerics/polynomial.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>

namespace saba {

Polynomial::Polynomial(std::vector<double> coeffs) : coeffs_(std::move(coeffs)) {
  TrimTrailingZeros();
}

void Polynomial::TrimTrailingZeros() {
  while (coeffs_.size() > 1 && coeffs_.back() == 0.0) {
    coeffs_.pop_back();
  }
}

double Polynomial::Evaluate(double x) const {
  double acc = 0.0;
  for (size_t i = coeffs_.size(); i > 0; --i) {
    acc = acc * x + coeffs_[i - 1];
  }
  return acc;
}

Polynomial Polynomial::Derivative() const {
  if (coeffs_.size() <= 1) {
    return Polynomial({0.0});
  }
  std::vector<double> d(coeffs_.size() - 1);
  for (size_t i = 1; i < coeffs_.size(); ++i) {
    d[i - 1] = coeffs_[i] * static_cast<double>(i);
  }
  return Polynomial(std::move(d));
}

bool Polynomial::IsConvexOn(double lo, double hi, int samples) const {
  assert(lo <= hi && samples >= 2);
  const Polynomial d2 = Derivative().Derivative();
  for (int i = 0; i < samples; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / (samples - 1);
    if (d2.Evaluate(x) < -1e-9) {
      return false;
    }
  }
  return true;
}

std::string Polynomial::ToString() const {
  if (coeffs_.empty()) {
    return "0";
  }
  std::ostringstream os;
  bool first = true;
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    const double c = coeffs_[i];
    if (c == 0.0 && coeffs_.size() > 1) {
      continue;
    }
    if (first) {
      os << c;
      first = false;
    } else {
      os << (c < 0 ? " - " : " + ") << std::fabs(c);
    }
    if (i == 1) {
      os << "*x";
    } else if (i > 1) {
      os << "*x^" << i;
    }
  }
  if (first) {
    return "0";
  }
  return os.str();
}

}  // namespace saba
