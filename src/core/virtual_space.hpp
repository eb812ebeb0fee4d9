// The control plane's virtual position construction (Section IV):
//
//   1. M-position: embed the all-pairs shortest-path hop matrix of the
//      DT-participating switches into 2-D by classical MDS, so virtual
//      Euclidean distance is proportional to network distance (greedy
//      network embedding).
//   2. Normalize: affinely map the embedding into the unit square with
//      a small margin, preserving the aspect ratio (data positions are
//      hashed into [0,1]^2, so switch positions must live there too; a
//      uniform scale keeps distances proportional).
//   3. C-regulation: refine the positions toward a Centroidal Voronoi
//      Tessellation so that — under the uniform hash of data ids — each
//      switch owns an equal share of the space (Section IV-B). The
//      GRED-NoCVT variant of the evaluation skips this step.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "geometry/cvt.hpp"
#include "geometry/point.hpp"
#include "geometry/site_grid.hpp"
#include "graph/shortest_path.hpp"
#include "topology/edge_network.hpp"

namespace gred::core {

/// Which algorithm computes the raw switch coordinates from network
/// distances (before normalization and C-regulation).
enum class EmbeddingAlgorithm {
  kMPosition,  ///< classical MDS (the paper's choice)
  kVivaldi,    ///< decentralized spring relaxation (related-work
               ///< alternative; see core/vivaldi.hpp)
};

struct VirtualSpaceOptions {
  /// Embedding algorithm for the M-position step.
  EmbeddingAlgorithm embedding = EmbeddingAlgorithm::kMPosition;
  /// C-regulation iterations T (the paper runs T = 50 by default and
  /// sweeps T in Fig. 11(c)); 0 gives GRED-NoCVT.
  std::size_t cvt_iterations = 50;
  /// Sample points per C-regulation iteration (paper: 1000).
  std::size_t cvt_samples = 1000;
  /// Margin kept between the embedded switches and the unit-square
  /// border after normalization.
  double margin = 0.05;
  /// Deterministic seed for the C-regulation sampling.
  std::uint64_t seed = 0x47524544u;  // "GRED"

  /// When true, the M-position embedding (and the relay-path choice)
  /// uses latency-weighted shortest paths instead of hop counts — the
  /// natural reading of the paper's "network distance" on topologies
  /// with heterogeneous link latencies.
  bool weighted_embedding = false;

  /// Optional demand density rho(p) over the unit square for
  /// C-regulation (default: uniform). With a popularity-weighted
  /// density, CVT equalizes each switch's share of *expected demand*
  /// instead of area, shrinking the cells around hotspot regions so
  /// more switches share the hot keys (ROADMAP "Hotspot traffic").
  /// Must be bounded above by cvt_density_bound (rejection sampling).
  std::function<double(const geometry::Point2D&)> cvt_density;
  double cvt_density_bound = 1.0;
};

class VirtualSpace {
 public:
  /// An empty space; fill via build().
  VirtualSpace() = default;

  /// Builds positions for `participants` (switch ids that join the DT)
  /// from the hop distances in `apsp` (computed over the full physical
  /// graph). Fails when participants is empty or any pair is
  /// disconnected.
  static Result<VirtualSpace> build(
      const std::vector<topology::SwitchId>& participants,
      const graph::ApspResult& apsp, const VirtualSpaceOptions& options);

  /// Restores a space from explicit positions (snapshot load): no MDS
  /// or CVT runs. Fails on size mismatch, duplicate positions,
  /// coordinates outside [0, 1], or participants `apsp` finds
  /// disconnected.
  static Result<VirtualSpace> from_positions(
      std::vector<topology::SwitchId> participants,
      std::vector<geometry::Point2D> positions,
      const graph::ApspResult& apsp);

  const std::vector<topology::SwitchId>& participants() const {
    return participants_;
  }
  /// Final positions (CVT-refined when enabled), aligned with
  /// participants().
  const std::vector<geometry::Point2D>& positions() const {
    return positions_;
  }

  /// Index of `sw` in participants(); kNoIndex when not a participant.
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  std::size_t index_of(topology::SwitchId sw) const;

  /// Kruskal stress of the normalized M-position embedding against the
  /// hop distances (diagnostics / ablation A2).
  double embedding_stress() const { return stress_; }

  /// The participant whose position is nearest to `p` (paper
  /// tie-break). Answered from a uniform-grid index over the positions
  /// — expected O(1) per query instead of the O(n) scan, with exactly
  /// the same answers — since every packet's home-switch lookup lands
  /// here.
  topology::SwitchId nearest_participant(const geometry::Point2D& p) const;

  /// The k participants nearest to `p`, ascending by the same total
  /// order (element 0 == nearest_participant(p)). Fewer than k only
  /// when the space has fewer participants. Replica placement derives
  /// the fallback homes of a data position from this list.
  std::vector<topology::SwitchId> nearest_participants(
      const geometry::Point2D& p, std::size_t k) const;

  /// Appends a participant at an explicit position (node join,
  /// Section VI). The caller computes the position (Controller: the
  /// centroid of the joiner's nearest participants). A position that
  /// coincides with a site is nudged; only the appended site moves.
  void add_participant(topology::SwitchId sw, const geometry::Point2D& p);

  /// Removes a participant (node leave). No-op when absent.
  void remove_participant(topology::SwitchId sw);

 private:
  /// Re-indexes positions_ into grid_; call after every mutation.
  void rebuild_grid();

  std::vector<topology::SwitchId> participants_;
  std::vector<geometry::Point2D> positions_;
  geometry::SiteGrid grid_;
  double stress_ = 0.0;
};

}  // namespace gred::core
