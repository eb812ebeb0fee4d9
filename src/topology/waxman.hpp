// BRITE-style Waxman topology generator (the paper's Section VII-B uses
// "BRITE with the Waxman model ... at the switch level"). Nodes are
// placed uniformly at random in a plane; following BRITE's router-level
// incremental mode, each newly added node attaches to `min_degree`
// distinct existing nodes chosen with probability proportional to the
// Waxman weight
//
//   P(u, v) = alpha * exp( -d(u, v) / (beta * L) )
//
// where d is Euclidean distance, L the maximum possible distance, and
// beta BRITE's default 0.2.
// A final patch-up pass adds Waxman-weighted edges until every node has
// degree >= min_degree (matching the paper's "minimal degree of
// switches for interconnection" knob, swept 3..10 in Fig. 9(b)).
#pragma once

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/point.hpp"
#include "graph/graph.hpp"

namespace gred::topology {

struct WaxmanOptions {
  std::size_t node_count = 100;
  /// Links added per new node; also the enforced minimum degree.
  std::size_t min_degree = 3;
  double alpha = 0.15;  ///< BRITE default
  double plane_size = 1000.0;  ///< nodes placed in [0, plane_size]^2

  /// When true, link weights are propagation latencies derived from
  /// the geographic placements (ms = Euclidean distance * 0.01,
  /// floored at 0.05 ms) instead of unit hop costs. Enables the
  /// latency-aware routing metrics.
  bool latency_weights = false;
};

struct WaxmanTopology {
  graph::Graph graph;
  /// Geographic placements used by the Waxman weights (diagnostics; the
  /// GRED virtual space is computed from hop distances, not from these).
  std::vector<geometry::Point2D> placements;
};

/// Generates a connected Waxman graph. Fails when node_count == 0 or
/// min_degree >= node_count.
Result<WaxmanTopology> generate_waxman(const WaxmanOptions& options,
                                       Rng& rng);

}  // namespace gred::topology
