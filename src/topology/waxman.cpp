#include "topology/waxman.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace gred::topology {
namespace {

constexpr double kBeta = 0.2;  ///< BRITE default
/// Latency-weight mode: link ms per unit of placement distance, and
/// the floor of a link's latency.
constexpr double kLatencyMsPerUnit = 0.01;
constexpr double kMinLatencyMs = 0.05;

/// Waxman attachment weight between placed nodes.
double waxman_weight(const geometry::Point2D& a, const geometry::Point2D& b,
                     const WaxmanOptions& options, double max_dist) {
  const double d = geometry::distance(a, b);
  return options.alpha * std::exp(-d / (kBeta * max_dist));
}

/// Picks an index from `weights` with probability proportional to the
/// weight, excluding entries already set to 0.
std::size_t weighted_pick(const std::vector<double>& weights, Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    // All candidates excluded or zero-weight: uniform over non-negative.
    std::vector<std::size_t> viable;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] >= 0.0) viable.push_back(i);
    }
    return viable[rng.next_below(viable.size())];
  }
  double r = rng.next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace

Result<WaxmanTopology> generate_waxman(const WaxmanOptions& options,
                                       Rng& rng) {
  const std::size_t n = options.node_count;
  if (n == 0) {
    return Error(ErrorCode::kInvalidArgument, "waxman: node_count == 0");
  }
  if (options.min_degree >= n && n > 1) {
    return Error(ErrorCode::kInvalidArgument,
                 "waxman: min_degree must be < node_count");
  }

  WaxmanTopology topo;
  topo.graph = graph::Graph(n);
  topo.placements.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    topo.placements.push_back(
        {rng.uniform(0.0, options.plane_size),
         rng.uniform(0.0, options.plane_size)});
  }
  const double max_dist = options.plane_size * std::sqrt(2.0);
  auto link_weight = [&](std::size_t u, std::size_t v) {
    if (!options.latency_weights) return 1.0;
    return std::max(kMinLatencyMs,
                    geometry::distance(topo.placements[u],
                                       topo.placements[v]) *
                        kLatencyMsPerUnit);
  };

  // Incremental attachment: node i connects to min(i, min_degree)
  // distinct predecessors, Waxman-weighted. This keeps the graph
  // connected by construction.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t links = std::min(i, options.min_degree);
    std::vector<double> weights(i);
    for (std::size_t j = 0; j < i; ++j) {
      weights[j] = waxman_weight(topo.placements[i], topo.placements[j],
                                 options, max_dist);
    }
    for (std::size_t l = 0; l < links; ++l) {
      const std::size_t j = weighted_pick(weights, rng);
      weights[j] = 0.0;  // no parallel edges
      (void)topo.graph.add_edge(i, j, link_weight(i, j));
    }
  }

  // Patch-up: raise every node to min_degree with Waxman-weighted extra
  // edges (early nodes can be under-connected after the incremental
  // pass).
  for (std::size_t u = 0; u < n; ++u) {
    while (topo.graph.degree(u) < options.min_degree &&
           topo.graph.degree(u) < n - 1) {
      std::vector<double> weights(n, 0.0);
      for (std::size_t v = 0; v < n; ++v) {
        if (v == u || topo.graph.has_edge(u, v)) continue;
        weights[v] = waxman_weight(topo.placements[u], topo.placements[v],
                                   options, max_dist);
      }
      const std::size_t v = weighted_pick(weights, rng);
      if (!topo.graph.add_edge(u, v, link_weight(u, v)).ok()) break;
    }
  }

  return topo;
}

}  // namespace gred::topology
