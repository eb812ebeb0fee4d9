#include "linalg/mds.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/eigen.hpp"

namespace gred::linalg {
namespace {

// Subspace-iteration constants. The block carries kGuardVectors beyond
// the m wanted, so the top-m Ritz pairs converge at the rate
// |lambda_{m+5}| / lambda_m whatever the gap lambda_m - lambda_{m+1}
// (zero for symmetric graphs such as rings, square grids and stars).
constexpr std::size_t kGuardVectors = 4;
/// Stop when every top-m residual ||B v - lambda v|| is at most this
/// times ||B||_F.
constexpr double kResidualTolerance = 1e-10;
constexpr std::size_t kMaxIterations = 500;
/// A block vector whose norm falls to this times ||B||_F after
/// orthogonalization lies in B's numerical null space and is redrawn.
constexpr double kNullTolerance = 1e-13;
constexpr std::uint64_t kStartSeed = 0x4d2d706f73ULL;

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Removes from `v` its components along rows 0..c-1 of `q` (modified
/// Gram-Schmidt, two passes) and returns the remaining norm.
double orthogonalize(const Matrix& q, std::size_t c, double* v) {
  const std::size_t n = q.cols();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < c; ++r) {
      const double* qr = q.row(r);
      const double proj = dot(qr, v, n);
      for (std::size_t i = 0; i < n; ++i) v[i] -= proj * qr[i];
    }
  }
  return std::sqrt(dot(v, v, n));
}

/// Orthonormalizes the rows of `q` in place. A row left with norm at
/// most `floor` is replaced by a fresh draw from `rng`, so the block
/// keeps full rank when B maps some of it to (numerically) zero. A
/// draw is kept once a thousandth of its norm survives.
void orthonormalize(Matrix& q, double floor, Rng& rng) {
  const std::size_t n = q.cols();
  for (std::size_t c = 0; c < q.rows(); ++c) {
    double* v = q.row(c);
    double norm = orthogonalize(q, c, v);
    while (norm <= floor) {
      for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
      floor = 1e-3 * std::sqrt(dot(v, v, n));
      norm = orthogonalize(q, c, v);
    }
    for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
  }
}

/// w.row(c) = B * q.row(c) for every row of the block. B is symmetric,
/// so row j of B is also its column j: the product is a sum of
/// contiguous axpys, and B streams through the cache once per call.
void multiply_block(const Matrix& b, const Matrix& q, Matrix& w) {
  const std::size_t n = b.rows();
  const std::size_t k = q.rows();
  for (std::size_t c = 0; c < k; ++c) {
    double* wc = w.row(c);
    for (std::size_t i = 0; i < n; ++i) wc[i] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double* bj = b.row(j);
    for (std::size_t c = 0; c < k; ++c) {
      const double s = q(c, j);
      double* wc = w.row(c);
      for (std::size_t i = 0; i < n; ++i) wc[i] += s * bj[i];
    }
  }
}

/// out.row(c) = sum_d u(d, c) * x.row(d): the block expressed in the
/// eigenbasis `u` of the projected matrix.
void rotate_block(const Matrix& x, const Matrix& u, Matrix& out) {
  const std::size_t n = x.cols();
  for (std::size_t c = 0; c < out.rows(); ++c) {
    double* oc = out.row(c);
    for (std::size_t i = 0; i < n; ++i) oc[i] = 0.0;
    for (std::size_t d = 0; d < x.rows(); ++d) {
      const double s = u(d, c);
      const double* xd = x.row(d);
      for (std::size_t i = 0; i < n; ++i) oc[i] += s * xd[i];
    }
  }
}

}  // namespace

Matrix pairwise_distances(const Matrix& coords) {
  const std::size_t n = coords.rows();
  const std::size_t m = coords.cols();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double diff = coords(i, k) - coords(j, k);
        acc += diff * diff;
      }
      const double dist = std::sqrt(acc);
      d(i, j) = dist;
      d(j, i) = dist;
    }
  }
  return d;
}

double kruskal_stress(const Matrix& distances, const Matrix& coords) {
  const Matrix dhat = pairwise_distances(coords);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < distances.rows(); ++i) {
    for (std::size_t j = i + 1; j < distances.cols(); ++j) {
      const double diff = distances(i, j) - dhat(i, j);
      num += diff * diff;
      den += distances(i, j) * distances(i, j);
    }
  }
  if (den == 0.0) return 0.0;
  return std::sqrt(num / den);
}

Result<MdsResult> classical_mds(const Matrix& distances, std::size_t m) {
  const std::size_t n = distances.rows();
  if (n == 0 || distances.cols() != n) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: distance matrix must be square");
  }
  if (m == 0 || m >= n) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: need 0 < m < n");
  }
  if (!distances.is_symmetric(1e-9)) {
    return Error(ErrorCode::kInvalidArgument,
                 "classical_mds: distance matrix must be symmetric");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (distances(i, i) != 0.0) {
      return Error(ErrorCode::kInvalidArgument,
                   "classical_mds: nonzero diagonal");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (distances(i, j) < 0.0) {
        return Error(ErrorCode::kInvalidArgument,
                     "classical_mds: negative distance");
      }
    }
  }

  // Double centering: B = -1/2 J L^(2) J with J = I - A/n, which is
  // b_ij = -1/2 (l_ij^2 - r_i - r_j + g) for the row means r of L^(2)
  // and its grand mean g. The upper triangle is mirrored, so B is
  // exactly symmetric.
  const double inv_n = 1.0 / static_cast<double>(n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double sq = distances(i, j) * distances(i, j);
      b(i, j) = sq;
      b(j, i) = sq;
    }
  }
  std::vector<double> row_mean(n);
  double grand_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += b(i, j);
    row_mean[i] = sum * inv_n;
    grand_mean += row_mean[i];
  }
  grand_mean *= inv_n;
  double b_norm_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v =
          -0.5 * (b(i, j) - row_mean[i] - row_mean[j] + grand_mean);
      b(i, j) = v;
      b(j, i) = v;
      b_norm_sq += (i == j ? 1.0 : 2.0) * v * v;
    }
  }
  const double b_norm = std::sqrt(b_norm_sq);

  // Block subspace iteration with Rayleigh-Ritz: q holds an orthonormal
  // basis (one vector per row), h = q B q^T is its k x k projection, and
  // the eigenpairs (theta, u) of h give Ritz pairs (theta, u^T q).
  const std::size_t k = std::min(m + kGuardVectors, n);
  Rng rng(kStartSeed);
  Matrix q(k, n);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) q(c, i) = rng.uniform(-1.0, 1.0);
  }
  orthonormalize(q, 0.0, rng);

  Matrix w(k, n);       // B q
  Matrix ritz(m, n);    // top-m Ritz vectors u^T q
  Matrix b_ritz(k, n);  // B times each Ritz vector, u^T (B q)
  Matrix h(k, k);
  EigenDecomposition eig;
  for (std::size_t iter = 0;; ++iter) {
    multiply_block(b, q, w);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d = c; d < k; ++d) {
        const double v = 0.5 * (dot(q.row(c), w.row(d), n) +
                                dot(q.row(d), w.row(c), n));
        h(c, d) = v;
        h(d, c) = v;
      }
    }
    eig = symmetric_eigen(h);
    rotate_block(q, eig.vectors, ritz);
    rotate_block(w, eig.vectors, b_ritz);

    bool converged = true;
    for (std::size_t c = 0; c < m && converged; ++c) {
      double res_sq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = b_ritz(c, i) - eig.values[c] * ritz(c, i);
        res_sq += r * r;
      }
      converged = std::sqrt(res_sq) <= kResidualTolerance * b_norm;
    }
    if (converged || iter + 1 == kMaxIterations) break;
    std::swap(q, b_ritz);
    orthonormalize(q, kNullTolerance * b_norm, rng);
  }

  // Q = E_m Lambda_m^{1/2}; clamp tiny negative eigenvalues (the hop
  // metric is generally non-Euclidean, so trailing eigenvalues can dip
  // below zero). Each axis is signed so that its largest-magnitude
  // coordinate (lowest index on ties) is positive.
  MdsResult out;
  out.eigenvalues.assign(eig.values.begin(),
                         eig.values.begin() + static_cast<std::ptrdiff_t>(m));
  out.coordinates = Matrix(n, m);
  for (std::size_t c = 0; c < m; ++c) {
    const double lambda = eig.values[c];
    const double scale = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
    std::size_t peak = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.coordinates(i, c) = ritz(c, i) * scale;
      if (std::fabs(out.coordinates(i, c)) >
          std::fabs(out.coordinates(peak, c))) {
        peak = i;
      }
    }
    if (out.coordinates(peak, c) < 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        out.coordinates(i, c) = -out.coordinates(i, c);
      }
    }
  }
  out.stress = kruskal_stress(distances, out.coordinates);
  return out;
}

}  // namespace gred::linalg
