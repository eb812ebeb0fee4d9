#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gred::linalg {
namespace {

/// The Jacobi sweep loop's bound, and its stop: the off-diagonal norm
/// below kTolerance times the Frobenius norm of the input.
constexpr std::size_t kMaxSweeps = 64;
constexpr double kTolerance = 1e-12;

/// Sum of squares of the strictly-off-diagonal elements.
double off_diagonal_sq(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (r != c) acc += a(r, c) * a(r, c);
    }
  }
  return acc;
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a) {
  if (!a.is_symmetric(1e-6)) {
    throw std::invalid_argument("symmetric_eigen: matrix is not symmetric");
  }
  const std::size_t n = a.rows();
  Matrix d = a;                       // working copy, driven to diagonal
  Matrix v = Matrix::identity(n);    // accumulated rotations

  const double stop =
      kTolerance * kTolerance * a.frobenius_norm() * a.frobenius_norm() +
      1e-300;

  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_sq(d) <= stop) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);

        // Rotation angle that annihilates d(p,q).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply J^T D J on rows/cols p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] > diag[y]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

}  // namespace gred::linalg
