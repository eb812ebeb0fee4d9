// Geometric predicates for the Delaunay construction. Implemented with
// long-double accumulation and a relative-epsilon guard: the virtual
// positions produced by MDS + CVT are in general position (continuous
// coordinates), so fully adaptive exact arithmetic is unnecessary; the
// guard only has to keep near-degenerate cases deterministic.
#pragma once

#include "geometry/point.hpp"

namespace gred::geometry {

enum class Orientation { kClockwise, kCollinear, kCounterClockwise };

/// Orientation of the ordered triple (a, b, c).
Orientation orient2d(const Point2D& a, const Point2D& b, const Point2D& c);

/// Signed twice-area of triangle (a, b, c); >0 when counter-clockwise.
double signed_area2(const Point2D& a, const Point2D& b, const Point2D& c);

/// True iff `p` lies strictly inside the circumcircle of the
/// counter-clockwise triangle (a, b, c).
bool in_circumcircle(const Point2D& a, const Point2D& b, const Point2D& c,
                     const Point2D& p);

}  // namespace gred::geometry
