#include "core/vivaldi.hpp"

#include <cmath>

#include "linalg/mds.hpp"

namespace gred::core {
namespace {

constexpr double kCe = 0.25;  ///< confidence adaptation gain
constexpr double kCc = 0.25;  ///< coordinate adaptation gain

}  // namespace

Result<VivaldiResult> vivaldi_embedding(const linalg::Matrix& distances,
                                        const VivaldiOptions& options) {
  const std::size_t n = distances.rows();
  if (n == 0 || distances.cols() != n) {
    return Error(ErrorCode::kInvalidArgument,
                 "vivaldi: distance matrix must be square and non-empty");
  }
  if (!distances.is_symmetric(1e-9)) {
    return Error(ErrorCode::kInvalidArgument,
                 "vivaldi: distance matrix must be symmetric");
  }

  Rng rng(options.seed);
  VivaldiResult out;
  out.coordinates.assign(n, {});
  if (n == 1) {
    out.mean_error = 0.0;
    return out;
  }

  // Small random initial placement (breaking symmetry) and unit
  // confidence error, per the original algorithm.
  for (geometry::Point2D& p : out.coordinates) {
    p = {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
  }
  std::vector<double> error(n, 1.0);

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const std::size_t i = rng.next_below(n);
    std::size_t j = rng.next_below(n - 1);
    if (j >= i) ++j;
    const double rtt = distances(i, j);
    if (rtt <= 0.0 || rtt == std::numeric_limits<double>::infinity()) {
      continue;
    }

    geometry::Point2D diff = out.coordinates[i] - out.coordinates[j];
    double dist = geometry::norm(diff);
    if (dist < 1e-9) {
      // Coincident points: pick a deterministic pseudo-random direction.
      diff = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      dist = geometry::norm(diff);
      if (dist < 1e-9) diff = {1.0, 0.0}, dist = 1.0;
    }
    const geometry::Point2D unit = diff / dist;

    // Confidence-weighted adaptive timestep.
    const double w = error[i] / (error[i] + error[j]);
    const double e_sample = std::fabs(dist - rtt) / rtt;
    error[i] = e_sample * kCe * w + error[i] * (1.0 - kCe * w);
    const double delta = kCc * w;
    out.coordinates[i] =
        out.coordinates[i] + unit * (delta * (rtt - dist));
  }

  // Diagnostics.
  linalg::Matrix coords(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    coords(i, 0) = out.coordinates[i].x;
    coords(i, 1) = out.coordinates[i].y;
  }
  out.stress = linalg::kruskal_stress(distances, coords);
  double err_total = 0.0;
  for (double e : error) err_total += e;
  out.mean_error = err_total / static_cast<double>(n);
  return out;
}

}  // namespace gred::core
