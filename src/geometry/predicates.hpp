// Geometric predicates for the Delaunay construction. Each predicate is
// a floating-point filter: the determinant is evaluated in double and
// its sign is returned only when it clears a proven error bound (see
// predicates.cpp). Every other case — near-degenerate, tiny or
// non-finite input — falls back to the `_exact` variant, a __float128
// evaluation with a relative-epsilon guard that reports exact
// collinearity / cocircularity deterministically. The filter returns
// exactly what the `_exact` variant returns on every input, so the
// `_exact` functions are both the fallback and the test oracle.
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

/// The __float128 evaluations behind the filters above: their fallback
/// and their oracle. Same contracts; about 50–100x slower.
Orientation orient2d_exact(const Point2D& a, const Point2D& b,
                           const Point2D& c);
bool in_circumcircle_exact(const Point2D& a, const Point2D& b,
                           const Point2D& c, const Point2D& p);

}  // namespace gred::geometry
