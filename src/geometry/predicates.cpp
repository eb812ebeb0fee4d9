#include "geometry/predicates.hpp"

#include <cmath>

namespace gred::geometry {
namespace {

// Quad-precision (113-bit mantissa) determinant evaluation. The virtual
// positions handled here live in [0,1]^2 (plus a bounding super-triangle
// ~1e2 away), so determinant magnitudes stay far above the ~1e-34
// relative error of __float128; the guard epsilon below only has to
// catch *exact* degeneracies (true collinearity / cocircularity), which
// makes the predicates deterministic without full adaptive arithmetic.
using quad = __float128;

quad qabs(quad x) { return x < 0 ? -x : x; }

constexpr quad kEps = 1e-30;

}  // namespace

double signed_area2(const Point2D& a, const Point2D& b, const Point2D& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

Orientation orient2d(const Point2D& a, const Point2D& b, const Point2D& c) {
  const quad det = (quad(b.x) - quad(a.x)) * (quad(c.y) - quad(a.y)) -
                   (quad(b.y) - quad(a.y)) * (quad(c.x) - quad(a.x));
  const quad scale = qabs(quad(b.x) - quad(a.x)) +
                     qabs(quad(b.y) - quad(a.y)) +
                     qabs(quad(c.x) - quad(a.x)) +
                     qabs(quad(c.y) - quad(a.y));
  if (qabs(det) <= kEps * scale * scale) return Orientation::kCollinear;
  return det > 0 ? Orientation::kCounterClockwise : Orientation::kClockwise;
}

bool in_circumcircle(const Point2D& a, const Point2D& b, const Point2D& c,
                     const Point2D& p) {
  const quad ax = quad(a.x) - quad(p.x);
  const quad ay = quad(a.y) - quad(p.y);
  const quad bx = quad(b.x) - quad(p.x);
  const quad by = quad(b.y) - quad(p.y);
  const quad cx = quad(c.x) - quad(p.x);
  const quad cy = quad(c.y) - quad(p.y);

  const quad a2 = ax * ax + ay * ay;
  const quad b2 = bx * bx + by * by;
  const quad c2 = cx * cx + cy * cy;

  const quad det = ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) +
                   a2 * (bx * cy - by * cx);

  const quad scale = a2 + b2 + c2;
  return det > kEps * scale * scale;
}

}  // namespace gred::geometry
