// Delaunay triangulation of the switch positions in the virtual space
// (Section IV-C). Built by randomized incremental insertion with ghost
// faces, one per hull edge, joining it to a vertex at infinity
// (Bowyer-Watson cavity retriangulation, which yields the same DT as
// the paper's insert-and-flip description).
//
// The DT's defining property — greedy routing over DT edges always
// terminates at the site closest to the target point — is what gives
// GRED its guaranteed delivery; `greedy_route` implements that walk and
// the property tests in tests/delaunay_test.cpp verify it on random
// point sets.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/point.hpp"

namespace gred::geometry {

/// A triangle as indices into the site vector, counter-clockwise.
struct Triangle {
  std::array<std::size_t, 3> v{};

  bool has_vertex(std::size_t i) const {
    return v[0] == i || v[1] == i || v[2] == i;
  }
};

class DelaunayTriangulation {
 public:
  /// An empty triangulation (no sites); fill via build().
  DelaunayTriangulation() = default;

  /// Builds the DT of `points`. Duplicate points are rejected
  /// (kInvalidArgument): the virtual-space layer guarantees distinct
  /// switch positions. Collinear inputs degenerate to a chain (no
  /// triangles; consecutive points along the line become neighbors),
  /// which preserves the greedy-delivery property in 1-D.
  /// Insertion order is randomized with `rng` when provided, else a
  /// deterministic shuffle seeded from the point count.
  static Result<DelaunayTriangulation> build(std::vector<Point2D> points,
                                             Rng* rng = nullptr);

  const std::vector<Point2D>& points() const { return points_; }
  const std::vector<Triangle>& triangles() const { return triangles_; }

  /// DT neighbors of site i, sorted ascending.
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return adjacency_[i];
  }
  std::size_t size() const { return points_.size(); }
  bool are_neighbors(std::size_t i, std::size_t j) const;

  /// Total number of DT edges.
  std::size_t edge_count() const;

  /// The site nearest to `p` over ALL sites (brute force; tie-break by
  /// the paper's (x, y) rank). This is the ground truth greedy routing
  /// must reach.
  std::size_t nearest_site(const Point2D& p) const;

  /// One greedy step from site `from` toward `p`: the neighbor strictly
  /// closer to `p` than `from` that minimizes distance (tie-break by
  /// position rank), or kNoSite when `from` is a local minimum.
  std::size_t greedy_next(std::size_t from, const Point2D& p) const;

  /// Full greedy walk from `from` toward `p`; the returned path starts
  /// at `from` and ends at the local (= global, on a DT) minimum.
  std::vector<std::size_t> greedy_route(std::size_t from,
                                        const Point2D& p) const;

  /// Incrementally inserts one site (node join, Section VI): only the
  /// faces whose circumdisk contains `p` are retriangulated, so the
  /// update cost is local. Returns the new site's index. Fails on
  /// duplicates. Degenerate triangulations (fewer than 3 sites or a
  /// collinear chain) are rebuilt from scratch instead. `affected`
  /// (optional) receives the sites whose adjacency may have changed,
  /// sorted: the cavity's sites and the new one, or every site after a
  /// rebuild.
  Result<std::size_t> insert(const Point2D& p,
                             std::vector<std::size_t>* affected = nullptr);

  /// Removes site `idx` (node leave). Interior sites are removed
  /// locally: their incident faces are deleted and the star polygon is
  /// re-triangulated by Delaunay ear clipping, so only the link ring is
  /// touched. Hull sites and degenerate or tiny states are rebuilt from
  /// scratch instead. `affected` (optional) receives the post-removal
  /// indices of the sites whose adjacency may have changed, sorted: the
  /// link ring, or every site after a rebuild. Site indices above `idx`
  /// shift down by one, exactly like erasing from the point vector.
  Status remove(std::size_t idx, std::vector<std::size_t>* affected = nullptr);

 private:
  /// Face record including ghost faces: finite faces are CCW triangles;
  /// ghost faces have c == kGhostVertex and (a, b) is a directed hull
  /// edge with the triangulated region on its left.
  struct Face {
    std::size_t a, b, c;
  };
  static constexpr std::size_t kGhostVertex = static_cast<std::size_t>(-2);

  /// Bowyer-Watson insertion of points_[idx] into `faces`. `cavity`
  /// (optional) receives the distinct non-ghost vertices of the
  /// conflict faces — the sites whose adjacency the insertion can
  /// change.
  static Status insert_into_faces(const std::vector<Point2D>& pts,
                                  std::vector<Face>& faces, std::size_t idx,
                                  std::vector<std::size_t>* cavity = nullptr);

  /// Rebuilds from scratch over the current points with `idx` erased
  /// (remove()'s non-local case) and lists every site in `affected`.
  Status rebuild_without(std::size_t idx, std::vector<std::size_t>* affected);

  /// Refreshes triangles_ and adjacency_ from faces_.
  void refresh_from_faces();

  void build_adjacency();

  std::vector<Point2D> points_;
  std::vector<Triangle> triangles_;
  std::vector<std::vector<std::size_t>> adjacency_;
  std::vector<Face> faces_;   ///< empty for degenerate triangulations
  bool maintainable_ = false; ///< faces_ valid (>= 3 non-collinear sites)
};

}  // namespace gred::geometry
