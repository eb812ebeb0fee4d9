// Symmetric eigendecomposition via the cyclic Jacobi rotation method:
// all n eigenpairs, O(n^3) per sweep. classical_mds runs it only on the
// k x k Rayleigh-Ritz projection of its subspace iteration (k = m + 4);
// on the full n x n double-centered matrix it is the test oracle for
// that solver.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace gred::linalg {

/// Eigen decomposition of a symmetric matrix: A = V diag(values) V^T.
/// `values` are sorted descending; `vectors.col(j)` pairs with values[j]
/// (vectors is column-major in the sense that column j is eigenvector j).
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;  ///< n x n; column j is the eigenvector for values[j].
};

/// Computes all eigenpairs of a symmetric matrix. Precondition:
/// a.is_symmetric(); asserts/throws otherwise. Sweeps stop once the
/// off-diagonal norm falls below 1e-12 times the input's Frobenius
/// norm, or after 64 sweeps.
EigenDecomposition symmetric_eigen(const Matrix& a);

}  // namespace gred::linalg
