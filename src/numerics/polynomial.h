// Dense univariate polynomial with double coefficients.
//
// Saba's sensitivity models (Eq 1 in the paper) are polynomials in the
// bandwidth fraction b: D(b) = c0 + c1*b + ... + ck*b^k. This type stores the
// coefficients in ascending-degree order and provides the evaluation and
// differentiation the controller's weight solver needs.

#ifndef SRC_NUMERICS_POLYNOMIAL_H_
#define SRC_NUMERICS_POLYNOMIAL_H_

#include <cstddef>
#include <string>
#include <vector>

namespace saba {

class Polynomial {
 public:
  // The zero polynomial.
  Polynomial() = default;

  // Coefficients in ascending-degree order: coeffs[i] multiplies x^i.
  explicit Polynomial(std::vector<double> coeffs);

  // Degree of the polynomial; the zero polynomial has degree 0.
  size_t degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }

  const std::vector<double>& coefficients() const { return coeffs_; }

  // Coefficient of x^i; 0 for i beyond the stored degree.
  double coefficient(size_t i) const { return i < coeffs_.size() ? coeffs_[i] : 0.0; }

  // Evaluates at x using Horner's method.
  double Evaluate(double x) const;

  // First derivative.
  Polynomial Derivative() const;

  // True if the polynomial is convex over [lo, hi], checked by sampling the
  // second derivative at `samples` evenly spaced points (exact for degree
  // <= 3, where the second derivative is affine, with samples >= 2).
  bool IsConvexOn(double lo, double hi, int samples = 16) const;

  // Human-readable form like "2.1 - 3.4*x + 1.2*x^2".
  std::string ToString() const;

 private:
  void TrimTrailingZeros();

  std::vector<double> coeffs_;
};

}  // namespace saba

#endif  // SRC_NUMERICS_POLYNOMIAL_H_
