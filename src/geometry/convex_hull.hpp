// Convex hull (Andrew's monotone chain). Used to validate that a
// Delaunay triangulation covers the hull of its sites and by the
// Voronoi clipping diagnostics.
#pragma once

#include <vector>

#include "geometry/point.hpp"

namespace gred::geometry {

/// Returns the hull vertices in counter-clockwise order, without
/// repeating the first point. Collinear input returns the two extreme
/// points; fewer than 3 distinct points are returned as-is (deduped).
std::vector<Point2D> convex_hull(std::vector<Point2D> points);

/// Area of a simple polygon given in counter-clockwise order.
double polygon_area(const std::vector<Point2D>& polygon);

}  // namespace gred::geometry
