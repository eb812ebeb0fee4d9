// The paper's C-regulation method (Section IV-B, Algorithm 1): a
// sampling-based Centroidal Voronoi Tessellation refinement. Each
// iteration draws sample points from the domain density (1000 by
// default, as in the paper), assigns each to its nearest site, and
// moves every site toward the centroid of its assigned samples. The
// discrete CVT energy (mean squared sample-to-site distance) decreases
// until the site set approximates a CVT, equalizing the Voronoi cell
// sizes and hence the hash load on switches.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "geometry/point.hpp"
#include "geometry/voronoi.hpp"

namespace gred {
class ThreadPool;
}

namespace gred::geometry {

struct CvtOptions {
  /// Sample points drawn per iteration (the paper uses 1000; "that can
  /// be more").
  std::size_t samples_per_iteration = 1000;
  /// Iterations T (the paper sweeps T in Fig. 11(c)). Each moves every
  /// site the full Lloyd/MacQueen step onto its sample centroid.
  std::size_t max_iterations = 50;
  /// Domain of the virtual space.
  Rect domain;
  /// Optional density rho(p) over the domain (default: uniform). Must
  /// be bounded by `density_bound` for rejection sampling.
  std::function<double(const Point2D&)> density;
  double density_bound = 1.0;
  /// Pool the sampling loop fans out on; null means the global
  /// GRED_THREADS pool. Results are bit-identical for any thread count:
  /// samples are drawn in fixed blocks, each from its own RNG stream
  /// keyed on (seed, iteration, block), and the per-block partial sums
  /// are reduced in block order.
  ThreadPool* pool = nullptr;
};

struct CvtResult {
  std::vector<Point2D> sites;
  /// Discrete CVT energy estimate after each executed iteration.
  std::vector<double> energy_history;
  std::size_t iterations_run = 0;
};

/// Runs C-regulation on `sites`. Sites outside the domain are clamped
/// into it first (MDS output is normalized before this is called, but
/// the clamp keeps the function total).
CvtResult c_regulation(std::vector<Point2D> sites, const CvtOptions& options,
                       Rng& rng);

}  // namespace gred::geometry
