// Vivaldi network coordinates (Dabek et al., SIGCOMM'04) as an
// alternative to the paper's M-position algorithm. The related work
// (Section VIII-B) points at decentralized virtual-coordinate schemes;
// Vivaldi is the canonical one: a spring relaxation where each node
// adjusts its position toward consistency with sampled pairwise
// distances, weighted by confidence. Unlike classical MDS it needs no
// global distance matrix factorization — the trade-off is embedding
// quality, which the ablation bench quantifies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/point.hpp"
#include "linalg/matrix.hpp"

namespace gred::core {

struct VivaldiOptions {
  /// Pairwise relaxation samples (each adjusts one node).
  std::size_t rounds = 20000;
  std::uint64_t seed = 0x7672616c64ULL;
};

struct VivaldiResult {
  std::vector<geometry::Point2D> coordinates;
  /// Kruskal stress-1 of the final embedding against `distances`.
  double stress = 0.0;
  /// Mean node confidence error at termination (diagnostics).
  double mean_error = 0.0;
};

/// Embeds the symmetric positive distance matrix into 2-D. Fails on a
/// non-square/asymmetric matrix or n == 0.
Result<VivaldiResult> vivaldi_embedding(const linalg::Matrix& distances,
                                        const VivaldiOptions& options = {});

}  // namespace gred::core
