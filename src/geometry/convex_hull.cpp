#include "geometry/convex_hull.hpp"

#include <algorithm>

#include "geometry/predicates.hpp"

namespace gred::geometry {

std::vector<Point2D> convex_hull(std::vector<Point2D> points) {
  std::sort(points.begin(), points.end(), lex_less);
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n <= 2) return points;

  std::vector<Point2D> hull(2 * n);
  std::size_t k = 0;

  // Lower hull.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 &&
           signed_area2(hull[k - 2], hull[k - 1], points[i]) <= 0.0) {
      --k;
    }
    hull[k++] = points[i];
  }
  // Upper hull.
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower &&
           signed_area2(hull[k - 2], hull[k - 1], points[i]) <= 0.0) {
      --k;
    }
    hull[k++] = points[i];
  }
  hull.resize(k - 1);  // last point == first point
  if (hull.size() < 2) {
    // All points coincident after dedup handled above; collinear sets
    // collapse to their extremes.
    hull.assign({points.front(), points.back()});
  }
  return hull;
}

double polygon_area(const std::vector<Point2D>& polygon) {
  double acc = 0.0;
  const std::size_t n = polygon.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point2D& p = polygon[i];
    const Point2D& q = polygon[(i + 1) % n];
    acc += cross(p, q);
  }
  return 0.5 * acc;
}

}  // namespace gred::geometry
