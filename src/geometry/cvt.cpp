#include "geometry/cvt.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "geometry/site_grid.hpp"

namespace gred::geometry {
namespace {

Point2D draw_sample(const CvtOptions& options, Rng& rng) {
  const Rect& d = options.domain;
  if (!options.density) {
    return {rng.uniform(d.min_x, d.max_x), rng.uniform(d.min_y, d.max_y)};
  }
  // Rejection sampling against the density bound.
  for (int attempt = 0; attempt < 1024; ++attempt) {
    Point2D p{rng.uniform(d.min_x, d.max_x), rng.uniform(d.min_y, d.max_y)};
    const double rho = options.density(p);
    if (rng.next_double() * options.density_bound <= rho) return p;
  }
  // Density nearly zero everywhere; fall back to uniform.
  return {rng.uniform(d.min_x, d.max_x), rng.uniform(d.min_y, d.max_y)};
}

/// Samples are drawn in fixed-size blocks so the block layout — and
/// hence each block's RNG stream — depends only on the sample count,
/// never on the thread count. 256 blocks bounds the partial-sum memory;
/// ~128 samples per block keeps enough blocks to feed 8+ threads at the
/// paper's default of 1000 samples per iteration.
std::size_t sample_block_count(std::size_t samples) {
  return std::clamp<std::size_t>((samples + 127) / 128, 1,
                                 std::size_t{256});
}

/// Number of samples block `b` draws: the remainder spreads over the
/// leading blocks.
std::size_t block_size(std::size_t samples, std::size_t blocks,
                       std::size_t b) {
  return samples / blocks + (b < samples % blocks ? 1 : 0);
}

ThreadPool& pool_of(const CvtOptions& options) {
  return options.pool ? *options.pool : global_pool();
}

}  // namespace

CvtResult c_regulation(std::vector<Point2D> sites, const CvtOptions& options,
                       Rng& rng) {
  CvtResult result;
  for (Point2D& s : sites) s = options.domain.clamp(s);
  if (sites.empty()) {
    result.sites = std::move(sites);
    return result;
  }

  ThreadPool& pool = pool_of(options);
  const std::size_t samples = options.samples_per_iteration;
  const std::size_t blocks = sample_block_count(samples);

  // Per-block partial accumulators, reduced in block order below so the
  // floating-point sums are identical for any thread count.
  std::vector<std::vector<Point2D>> block_acc(
      blocks, std::vector<Point2D>(sites.size()));
  std::vector<std::vector<std::size_t>> block_counts(
      blocks, std::vector<std::size_t>(sites.size()));
  std::vector<double> block_energy(blocks);

  std::vector<Point2D> centroid_acc(sites.size());
  std::vector<std::size_t> counts(sites.size());

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const std::uint64_t iter_seed = rng.next_u64();
    const SiteGrid grid(sites, options.domain);

    pool.parallel_for(0, blocks, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t b = lo; b < hi; ++b) {
        std::fill(block_acc[b].begin(), block_acc[b].end(), Point2D{});
        std::fill(block_counts[b].begin(), block_counts[b].end(),
                  std::size_t{0});
        Rng block_rng(iter_seed + b);
        double energy = 0.0;
        for (std::size_t s = block_size(samples, blocks, b); s > 0; --s) {
          const Point2D p = draw_sample(options, block_rng);
          const std::size_t i = grid.nearest(p);
          block_acc[b][i] = block_acc[b][i] + p;
          ++block_counts[b][i];
          energy += squared_distance(p, sites[i]);
        }
        block_energy[b] = energy;
      }
    });

    std::fill(centroid_acc.begin(), centroid_acc.end(), Point2D{});
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    double energy = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        centroid_acc[i] = centroid_acc[i] + block_acc[b][i];
        counts[i] += block_counts[b][i];
      }
      energy += block_energy[b];
    }
    energy /= static_cast<double>(samples);

    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (counts[i] == 0) continue;  // empty cell this round: stay put
      const Point2D centroid =
          centroid_acc[i] / static_cast<double>(counts[i]);
      // The full Lloyd step, kept as s + (c - s): c alone rounds
      // differently in the last bit, which would move every output.
      const Point2D moved = sites[i] + (centroid - sites[i]);
      sites[i] = options.domain.clamp(moved);
    }

    result.energy_history.push_back(energy);
    result.iterations_run = iter + 1;
  }

  result.sites = std::move(sites);
  return result;
}

}  // namespace gred::geometry
