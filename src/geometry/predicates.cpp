#include "geometry/predicates.hpp"

#include <cmath>

namespace gred::geometry {
namespace {

// Guard of the exact predicates: a determinant within
// kGuardEps * scale^2 of zero is reported as collinear (orient2d) or
// not inside (in_circumcircle). Its only job is to catch exact
// degeneracies deterministically.
constexpr double kGuardEps = 1e-30;

// ---------------------------------------------------------------------------
// Filter. Each predicate first evaluates its determinant `det` in double
// (IEEE binary64, round to nearest) and returns the sign of `det` when
//
//   2^-300 <= scale <= 2^100  and  |det| > A * permanent + 2 kGuardEps scale^2
//
// where A is Shewchuk's static bound for the expression (ccwerrboundA =
// (3 + 16e)e, iccerrboundA = (10 + 96e)e, e = 2^-53; J. R. Shewchuk,
// "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
// Predicates", 1997), `permanent` is the determinant's expansion with
// every product in absolute value, and `scale` is the quantity the exact
// code squares for its guard. Otherwise the exact code decides.
//
// Why the filter returns exactly what the exact code returns. Let D, P, S
// be the true determinant, permanent and scale of the input coordinates,
// g(k) = k e / (1 - k e), and v the exact result of the last operation
// of `det` before its rounding: det = fl(v) has the sign of v and
// |det| <= (1 + e) |v|.
//  1. Each monomial of D reaches v through at most k roundings: the
//     coordinate differences it multiplies (one per factor), then every
//     product and sum above it except the last operation; k = 3 for
//     orient2d and k = 10 for in_circumcircle. So |v - D| <= g(k) P.
//  2. The computed permanent passes each monomial through at most k + 1
//     roundings and the computed scale at most 6, so they are at least
//     (1 - g(k + 1)) P and (1 - g(6)) S; forming the bound rounds at most
//     three more times. With A = g(k) + O(e^2), |det| > bound therefore
//     gives |D| >= |v| - g(k) P > 2 kGuardEps S^2 (1 - 20 e) - c e^2 P,
//     with c = 14 for orient2d and c = 145 for in_circumcircle.
//  3. FMA contraction turns fl(fl(x y) + z) into fl(x y + z): it removes
//     the product's rounding from the counts in (1) and (2) and adds
//     none. The build never enables reassociation (-ffast-math), so the
//     argument holds with or without contraction.
//  4. Double inputs neither overflow nor underflow in __float128
//     (e_q = 2^-113). The exact code passes each monomial of its
//     determinant through at most 11 roundings and its guard through at
//     most 14, so |det_q - D| <= 11.1 e_q P and its guard guard_q is at
//     most kGuardEps S^2 (1 + 15 e_q).
//  5. P <= S^2 / 2 for orient2d (each |x y| <= (x^2 + y^2) / 2) and
//     P <= S^2 / 3 for in_circumcircle. So the c e^2 P of (2) and the
//     11.1 e_q P of (4) stay below 6e-31 S^2 (e^2 = 1.23e-32), which the
//     second kGuardEps S^2 of the bound pays with 4e-31 S^2 to spare.
//  6. scale >= 2^-300 keeps scale^2 and the guard term normal. A product
//     that underflows is off by at most 2^-1075, later multiplied by at
//     most one factor <= S, so all such errors together stay below
//     2^-1070 (S + 1), far inside the 4e-31 S^2 left by (5).
//  7. So |D| > |det_q - D| + guard_q: det_q has the sign of D and clears
//     the exact code's guard (in_circumcircle: det_q > guard_q when
//     D > 0, det_q < 0 when D < 0), which is the filter's answer.
//  8. Every coordinate difference enters `scale`, so an inf or NaN input
//     makes scale inf or NaN and fails the range test; scale <= 2^100
//     keeps every intermediate below 2^210, far from overflow.
// ---------------------------------------------------------------------------
constexpr double kEpsilon = 0x1p-53;
constexpr double kOrientBound = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kInCircleBound = (10.0 + 96.0 * kEpsilon) * kEpsilon;
constexpr double kGuardBound = 2.0 * kGuardEps;
constexpr double kMinScale = 0x1p-300;
constexpr double kMaxScale = 0x1p100;

bool filter_decides(double det, double bound, double scale) {
  return std::abs(det) > bound && scale >= kMinScale && scale <= kMaxScale;
}

// Exact path: quad-precision (113-bit mantissa) determinant evaluation.
// For double inputs its rounding error is ~1e-33 of the permanent, far
// below the guard, so it decides every sign the guard lets through.
using quad = __float128;

quad qabs(quad x) { return x < 0 ? -x : x; }

constexpr quad kEps = kGuardEps;

}  // namespace

double signed_area2(const Point2D& a, const Point2D& b, const Point2D& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

Orientation orient2d(const Point2D& a, const Point2D& b, const Point2D& c) {
  const double bax = b.x - a.x;
  const double bay = b.y - a.y;
  const double cax = c.x - a.x;
  const double cay = c.y - a.y;
  const double left = bax * cay;
  const double right = bay * cax;
  const double det = left - right;
  const double permanent = std::abs(left) + std::abs(right);
  const double scale =
      std::abs(bax) + std::abs(bay) + std::abs(cax) + std::abs(cay);
  const double bound = kOrientBound * permanent + kGuardBound * scale * scale;
  if (filter_decides(det, bound, scale)) {
    return det > 0 ? Orientation::kCounterClockwise : Orientation::kClockwise;
  }
  return orient2d_exact(a, b, c);
}

bool in_circumcircle(const Point2D& a, const Point2D& b, const Point2D& c,
                     const Point2D& p) {
  const double adx = a.x - p.x;
  const double ady = a.y - p.y;
  const double bdx = b.x - p.x;
  const double bdy = b.y - p.y;
  const double cdx = c.x - p.x;
  const double cdy = c.y - p.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;

  const double alift = adx * adx + ady * ady;
  const double blift = bdx * bdx + bdy * bdy;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);
  const double permanent = (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
                           (std::abs(cdxady) + std::abs(adxcdy)) * blift +
                           (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  const double scale = alift + blift + clift;
  const double bound =
      kInCircleBound * permanent + kGuardBound * scale * scale;
  if (filter_decides(det, bound, scale)) return det > 0;
  return in_circumcircle_exact(a, b, c, p);
}

Orientation orient2d_exact(const Point2D& a, const Point2D& b,
                           const Point2D& c) {
  const quad det = (quad(b.x) - quad(a.x)) * (quad(c.y) - quad(a.y)) -
                   (quad(b.y) - quad(a.y)) * (quad(c.x) - quad(a.x));
  const quad scale = qabs(quad(b.x) - quad(a.x)) +
                     qabs(quad(b.y) - quad(a.y)) +
                     qabs(quad(c.x) - quad(a.x)) +
                     qabs(quad(c.y) - quad(a.y));
  if (qabs(det) <= kEps * scale * scale) return Orientation::kCollinear;
  return det > 0 ? Orientation::kCounterClockwise : Orientation::kClockwise;
}

bool in_circumcircle_exact(const Point2D& a, const Point2D& b,
                           const Point2D& c, const Point2D& p) {
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
