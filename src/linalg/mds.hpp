// Classical multidimensional scaling — the mathematical core of the
// paper's M-position algorithm (Section IV-A):
//
//   B = -1/2 * J * L^(2) * J,   J = I - (1/n) * A   (double centering)
//   B = Q Q^T  via eigendecomposition;  Q = E_m * Lambda_m^{1/2}
//
// where L is the all-pairs shortest-path (hop) matrix between switches
// and m the embedding dimension (2 in the paper).
//
// Only the top m eigenpairs are computed, in O(n^2) per step: B is
// double-centred from the row means and grand mean of L^(2), then block
// subspace iteration on m + 4 vectors from a fixed-seed start, with
// Rayleigh-Ritz on the projected (m + 4) x (m + 4) matrix, runs until
// every top-m residual ||B v - lambda v|| is at most 1e-10 * ||B||_F
// (or an iteration cap). The result is deterministic: each axis is
// signed so that its largest-magnitude coordinate (lowest index on
// ties) is positive. Where lambda_m == lambda_{m+1} (symmetric graphs)
// the top-m eigenspace is not unique and any orthonormal basis of it is
// a valid answer; Q Q^T is unique whenever lambda_m > lambda_{m+1}.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace gred::linalg {

struct MdsResult {
  /// n x m coordinate matrix Q; row i is the embedded point of node i.
  Matrix coordinates;
  /// The top m eigenvalues of B (converged Ritz values), descending;
  /// axis k of `coordinates` is scaled by sqrt(max(eigenvalues[k], 0)).
  std::vector<double> eigenvalues;
  /// Kruskal stress-1 of the embedding against the input distances:
  /// sqrt( sum (d_ij - dhat_ij)^2 / sum d_ij^2 ). 0 = perfect.
  double stress = 0.0;
};

/// Embeds a symmetric non-negative distance matrix into m dimensions.
/// Fails when `distances` is not square/symmetric, has a negative entry
/// or nonzero diagonal, or when m is 0 or >= n.
Result<MdsResult> classical_mds(const Matrix& distances, std::size_t m);

/// Kruskal stress-1 between a distance matrix and the pairwise Euclidean
/// distances of `coords` (n x m). Exposed for tests/ablations.
double kruskal_stress(const Matrix& distances, const Matrix& coords);

/// Pairwise Euclidean distance matrix of the rows of `coords`.
Matrix pairwise_distances(const Matrix& coords);

}  // namespace gred::linalg
