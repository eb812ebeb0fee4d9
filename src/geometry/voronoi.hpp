// Voronoi-cell computations over a rectangular domain: exact cell
// areas — the load of a GRED switch under a uniform hash is
// proportional to its Voronoi cell area in the unit square, so tests
// and ablations can reason about balance analytically.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point.hpp"

namespace gred::geometry {

/// Axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 1.0;
  double max_y = 1.0;

  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  double area() const { return width() * height(); }
  bool contains(const Point2D& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
  Point2D clamp(const Point2D& p) const;
};

/// Index of the site nearest to `p` (tie-break by the paper's (x, y)
/// rank). Returns kNoSite for an empty site vector.
std::size_t nearest_site(const std::vector<Point2D>& sites, const Point2D& p);

/// The Voronoi cell of `sites[i]` clipped to `domain`, as a convex
/// polygon in counter-clockwise order (possibly empty if the cell does
/// not intersect the domain — cannot happen when the site is inside).
std::vector<Point2D> voronoi_cell(const std::vector<Point2D>& sites,
                                  std::size_t i, const Rect& domain);

/// Exact areas of all Voronoi cells clipped to `domain`. They sum to
/// domain.area() (up to floating-point error).
std::vector<double> voronoi_cell_areas(const std::vector<Point2D>& sites,
                                       const Rect& domain);

}  // namespace gred::geometry
