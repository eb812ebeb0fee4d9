// Fuzz harness for the Delaunay triangulation: randomized point sets
// with deliberately degenerate shapes (collinear chains, duplicates,
// cocircular quadruples) are built and then extended by incremental
// insertion. Every successful build/insert must satisfy the deep
// gred::check::validate_delaunay invariant (empty circumcircles,
// symmetric adjacency, closed hull) and greedy routing must reach the
// brute-force nearest site. On every point set, the filtered
// predicates must also agree with their __float128 oracles; one mode,
// a point a hair off an axis, exists for that check alone.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "fuzz_util.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "geometry/predicates.hpp"

using gred::fuzz::ByteSource;
using gred::geometry::DelaunayTriangulation;
using gred::geometry::in_circumcircle;
using gred::geometry::in_circumcircle_exact;
using gred::geometry::orient2d;
using gred::geometry::orient2d_exact;
using gred::geometry::Point2D;

namespace {

// The last generator mode below: sets that straddle the predicates'
// guard, checked against the oracles but not triangulated.
constexpr std::uint8_t kHairOffAxis = 4;

// Point-set generators keyed by the first input byte. Duplicates are
// intentionally possible in every mode: build() must reject them with
// a typed error, never crash.
std::vector<Point2D> make_points(ByteSource& src, std::uint8_t mode) {
  std::vector<Point2D> pts;
  const std::size_t n = 3 + src.below(24);
  pts.reserve(n + 4);
  switch (mode) {
    case 0:  // arbitrary points in a padded unit square
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({src.unit_double(-0.25, 1.25),
                       src.unit_double(-0.25, 1.25)});
      }
      break;
    case 1:  // collinear chain (occasionally with a repeat)
      for (std::size_t i = 0; i < n; ++i) {
        const double t = src.unit_double();
        pts.push_back({t, 0.5 + 0.25 * t});
      }
      break;
    case 2: {  // quantized grid: duplicates and cocircular sets abound
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({static_cast<double>(src.below(5)) * 0.25,
                       static_cast<double>(src.below(5)) * 0.25});
      }
      break;
    }
    case kHairOffAxis: {
      // Points on the x-axis, one of them 2^-90..2^-120 off it: a triple
      // through that point has a determinant of the offset times O(1)
      // with no rounding error, on either side of the exact predicates'
      // 1e-30 * scale^2 guard, so the filter's guard term alone decides
      // whether it may answer.
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({src.unit_double(), 0.0});
      }
      const int shift = 90 + static_cast<int>(src.below(31));
      const std::size_t off = src.below(n);
      const double sign = src.u8() % 2 == 0 ? 1.0 : -1.0;
      pts[off].y = std::ldexp(sign, -shift);
      if (src.u8() % 2 != 0) {  // the y-axis instead
        for (Point2D& p : pts) p = {p.y, p.x};
      }
      break;
    }
    default: {  // random cloud plus an exactly cocircular quadruple
      for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({src.unit_double(), src.unit_double()});
      }
      const double cx = src.unit_double(0.25, 0.75);
      const double cy = src.unit_double(0.25, 0.75);
      const double r = src.unit_double(0.05, 0.2);
      pts.push_back({cx + r, cy});
      pts.push_back({cx - r, cy});
      pts.push_back({cx, cy + r});
      pts.push_back({cx, cy - r});
      break;
    }
  }
  return pts;
}

std::string hex_points(std::initializer_list<Point2D> pts) {
  std::string out;
  char buf[96];
  for (const Point2D& p : pts) {
    std::snprintf(buf, sizeof buf, " (%a, %a)", p.x, p.y);
    out += buf;
  }
  return out;
}

// orient2d and in_circumcircle against their exact oracles over strided
// triples and quadruples of the set: O(n) checks, and no input bytes
// consumed, so the rest of the harness sees the same stream.
void check_predicates(const std::vector<Point2D>& pts) {
  const std::size_t n = pts.size();
  for (const std::size_t stride : {1, 2, 3, 5}) {
    for (std::size_t i = 0; i < n; ++i) {
      const Point2D& a = pts[i];
      const Point2D& b = pts[(i + stride) % n];
      const Point2D& c = pts[(i + 2 * stride) % n];
      const Point2D& p = pts[(i + 3 * stride) % n];
      FUZZ_ASSERT(orient2d(a, b, c) == orient2d_exact(a, b, c),
                  "orient2d disagrees with its oracle at" +
                      hex_points({a, b, c}));
      FUZZ_ASSERT(
          in_circumcircle(a, b, c, p) == in_circumcircle_exact(a, b, c, p),
          "in_circumcircle disagrees with its oracle at" +
              hex_points({a, b, c, p}));
    }
  }
}

bool has_duplicate(const std::vector<Point2D>& pts) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (pts[i].x == pts[j].x && pts[i].y == pts[j].y) return true;
    }
  }
  return false;
}

void check_greedy_delivery(const DelaunayTriangulation& dt,
                           ByteSource& src) {
  for (int probe = 0; probe < 4; ++probe) {
    const Point2D target{src.unit_double(-0.5, 1.5),
                         src.unit_double(-0.5, 1.5)};
    const std::size_t start = src.below(dt.size());
    const std::vector<std::size_t> path = dt.greedy_route(start, target);
    FUZZ_ASSERT(!path.empty() && path.front() == start,
                "greedy route must start at the source site");
    FUZZ_ASSERT(path.back() == dt.nearest_site(target),
                "greedy routing stopped short of the nearest site");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteSource src(data, size);
  const std::uint8_t mode = src.u8() % (kHairOffAxis + 1);
  std::vector<Point2D> pts = make_points(src, mode);
  check_predicates(pts);
  if (mode == kHairOffAxis) {
    // Not triangulated. Inside its 1e-30 * scale^2 guard the exact
    // orientation test is not a consistent geometry: with a, b, c on a
    // line, p can be on line ab and off line ac. The Bowyer-Watson
    // build assumes it is, and on such sets can return faces that fail
    // validate_delaunay (ROADMAP item 4).
    return 0;
  }
  const bool dup = has_duplicate(pts);

  auto built = DelaunayTriangulation::build(pts);
  if (!built.ok()) {
    FUZZ_ASSERT(dup, "build failed on a duplicate-free point set: " +
                         built.error().to_string());
    return 0;
  }
  FUZZ_ASSERT(!dup, "build accepted duplicate sites");
  DelaunayTriangulation dt = std::move(built).value();

  gred::check::CheckReport report = gred::check::validate_delaunay(dt);
  FUZZ_ASSERT(report.ok(), report.to_string());
  check_greedy_delivery(dt, src);

  // Incremental insertion: a handful of fresh sites, each of which
  // must keep the full invariant (duplicates must be rejected).
  const std::size_t inserts = 1 + src.below(4);
  for (std::size_t k = 0; k < inserts; ++k) {
    const Point2D p = k % 2 == 0
                          ? Point2D{src.unit_double(-0.5, 1.5),
                                    src.unit_double(-0.5, 1.5)}
                          : dt.points()[src.below(dt.size())];  // duplicate
    bool exists = false;
    for (const Point2D& q : dt.points()) {
      if (q.x == p.x && q.y == p.y) exists = true;
    }
    auto inserted = dt.insert(p);
    FUZZ_ASSERT(inserted.ok() == !exists,
                exists ? "insert accepted a duplicate site"
                       : "insert rejected a fresh site: " +
                             inserted.error().to_string());
    if (inserted.ok()) {
      report = gred::check::validate_delaunay(dt);
      FUZZ_ASSERT(report.ok(), report.to_string());
    }
  }
  check_greedy_delivery(dt, src);
  return 0;
}
