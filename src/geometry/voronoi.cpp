#include "geometry/voronoi.hpp"

#include <algorithm>

#include "geometry/convex_hull.hpp"

namespace gred::geometry {
namespace {

/// Clips a convex polygon with the half-plane { q : dot(q, n) <= c }
/// (Sutherland-Hodgman, one plane).
std::vector<Point2D> clip_half_plane(const std::vector<Point2D>& poly,
                                     const Point2D& n, double c) {
  std::vector<Point2D> out;
  const std::size_t k = poly.size();
  if (k == 0) return out;
  out.reserve(k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    const Point2D& p = poly[i];
    const Point2D& q = poly[(i + 1) % k];
    const double dp = dot(p, n) - c;
    const double dq = dot(q, n) - c;
    const bool pin = dp <= 0.0;
    const bool qin = dq <= 0.0;
    if (pin) out.push_back(p);
    if (pin != qin) {
      const double t = dp / (dp - dq);
      out.push_back({p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)});
    }
  }
  return out;
}

}  // namespace

Point2D Rect::clamp(const Point2D& p) const {
  return {std::clamp(p.x, min_x, max_x), std::clamp(p.y, min_y, max_y)};
}

std::size_t nearest_site(const std::vector<Point2D>& sites,
                         const Point2D& p) {
  std::size_t best = kNoSite;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (best == kNoSite || closer_to(p, sites[i], sites[best])) {
      best = i;
    }
  }
  return best;
}

std::vector<Point2D> voronoi_cell(const std::vector<Point2D>& sites,
                                  std::size_t i, const Rect& domain) {
  // Start from the domain rectangle, CCW.
  std::vector<Point2D> poly{{domain.min_x, domain.min_y},
                            {domain.max_x, domain.min_y},
                            {domain.max_x, domain.max_y},
                            {domain.min_x, domain.max_y}};
  const Point2D& si = sites[i];
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (j == i) continue;
    const Point2D& sj = sites[j];
    // Half-plane of points at least as close to si as to sj:
    //   |q - si|^2 <= |q - sj|^2
    //   2 (sj - si) . q <= |sj|^2 - |si|^2
    const Point2D n = (sj - si) * 2.0;
    const double c = dot(sj, sj) - dot(si, si);
    poly = clip_half_plane(poly, n, c);
    if (poly.empty()) break;
  }
  return poly;
}

std::vector<double> voronoi_cell_areas(const std::vector<Point2D>& sites,
                                       const Rect& domain) {
  std::vector<double> areas(sites.size(), 0.0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto cell = voronoi_cell(sites, i, domain);
    if (cell.size() >= 3) areas[i] = polygon_area(cell);
  }
  return areas;
}

}  // namespace gred::geometry
