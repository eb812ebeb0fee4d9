// Points, predicates, convex hull, Voronoi clipping, and the
// C-regulation (CVT) refinement.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "geometry/convex_hull.hpp"
#include "geometry/cvt.hpp"
#include "geometry/point.hpp"
#include "geometry/predicates.hpp"
#include "geometry/voronoi.hpp"

namespace gred::geometry {
namespace {

// ---------- Point2D ----------

TEST(PointTest, Arithmetic) {
  const Point2D a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point2D{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point2D{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point2D{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (Point2D{1.5, -0.5}));
}

TEST(PointTest, DotCrossNorm) {
  const Point2D a{3.0, 4.0}, b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(cross(b, a), 4.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4.0 + 16.0));
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 20.0);
}

TEST(PointTest, LexOrderTieBreak) {
  EXPECT_TRUE(lex_less({0.0, 1.0}, {1.0, 0.0}));
  EXPECT_TRUE(lex_less({1.0, 0.0}, {1.0, 1.0}));
  EXPECT_FALSE(lex_less({1.0, 1.0}, {1.0, 1.0}));
}

TEST(PointTest, CloserToIsTotalOrderOnDistanceTies) {
  // Two candidates equidistant from the target: the lexicographically
  // smaller one wins (the paper's Voronoi-edge tie-break).
  const Point2D target{0.0, 0.0};
  const Point2D a{1.0, 0.0}, b{0.0, 1.0};  // both at distance 1
  EXPECT_TRUE(closer_to(target, b, a));    // b has smaller x
  EXPECT_FALSE(closer_to(target, a, b));
}

TEST(PointTest, CloserToPrefersSmallerDistance) {
  const Point2D target{0.0, 0.0};
  EXPECT_TRUE(closer_to(target, {0.5, 0.0}, {1.0, 0.0}));
  EXPECT_FALSE(closer_to(target, {1.0, 0.0}, {0.5, 0.0}));
}

// ---------- predicates ----------

TEST(PredicatesTest, Orientation) {
  EXPECT_EQ(orient2d({0, 0}, {1, 0}, {0, 1}), Orientation::kCounterClockwise);
  EXPECT_EQ(orient2d({0, 0}, {0, 1}, {1, 0}), Orientation::kClockwise);
  EXPECT_EQ(orient2d({0, 0}, {1, 1}, {2, 2}), Orientation::kCollinear);
}

TEST(PredicatesTest, SignedArea) {
  EXPECT_DOUBLE_EQ(signed_area2({0, 0}, {1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(signed_area2({0, 0}, {0, 1}, {1, 0}), -1.0);
}

TEST(PredicatesTest, InCircumcircle) {
  // Unit circle through (1,0), (0,1), (-1,0) [CCW].
  const Point2D a{1, 0}, b{0, 1}, c{-1, 0};
  EXPECT_TRUE(in_circumcircle(a, b, c, {0.0, 0.0}));
  EXPECT_TRUE(in_circumcircle(a, b, c, {0.0, -0.9}));
  EXPECT_FALSE(in_circumcircle(a, b, c, {2.0, 0.0}));
  EXPECT_FALSE(in_circumcircle(a, b, c, {0.0, -1.5}));
  // On the circle: not strictly inside.
  EXPECT_FALSE(in_circumcircle(a, b, c, {0.0, -1.0}));
}

// Four points drawn by one of the input modes of
// FilteredMatchesExactOracle.
using PointQuad = std::array<Point2D, 4>;

enum OracleMode {
  kUniform,         // [0,1]^2
  kFuzzRange,       // [-0.25,1.25]^2, the Delaunay fuzz harness's range
  kGrid,            // k/4: exact collinear and cocircular sets abound
  kCollinearChain,  // (t, 0.5 + 0.25 t): collinear up to rounding
  kOnCircle,        // cocircular up to rounding
  kPerturbedGrid,   // k/4 moved by 0 or +-2^-50..2^-52
  kScaled,          // uniform or grid times 2^-1100..2^1050
  kLineOffset,      // one point 2^-90..2^-120 off an axis through O(1) points
  kExactLine,       // exactly on y = k x, coordinate magnitudes 2^0..2^-30
  kExactTrapezoid,  // exactly cocircular, coordinate magnitudes 2^0..2^-30
  kModeCount
};

Point2D grid_point(Rng& rng) {
  return {static_cast<double>(rng.next_below(5)) * 0.25,
          static_cast<double>(rng.next_below(5)) * 0.25};
}

// +-(1 + u) * 2^-e with `bits` significant bits and e in [0, 30]:
// differences of such values are mostly inexact in double, which is
// what drives the filters' rounding error toward their bounds.
double mixed_coordinate(Rng& rng, int bits) {
  const double mantissa =
      std::ldexp(std::floor(std::ldexp(1.0 + rng.next_double(), bits - 1)),
                 1 - bits);
  const int exponent = -static_cast<int>(rng.next_below(31));
  return (rng.bernoulli(0.5) ? 1.0 : -1.0) * std::ldexp(mantissa, exponent);
}

PointQuad draw_quad(Rng& rng, OracleMode mode) {
  PointQuad q;
  switch (mode) {
    case kUniform:
      for (Point2D& p : q) p = {rng.next_double(), rng.next_double()};
      break;
    case kFuzzRange:
      for (Point2D& p : q) {
        p = {rng.uniform(-0.25, 1.25), rng.uniform(-0.25, 1.25)};
      }
      break;
    case kGrid:
      for (Point2D& p : q) p = grid_point(rng);
      break;
    case kCollinearChain:
      for (Point2D& p : q) {
        const double t = rng.next_double();
        p = {t, 0.5 + 0.25 * t};
      }
      break;
    case kOnCircle: {
      const double cx = rng.uniform(0.25, 0.75);
      const double cy = rng.uniform(0.25, 0.75);
      const double r = rng.uniform(0.05, 0.5);
      for (Point2D& p : q) {
        const double theta = rng.uniform(0.0, 6.283185307179586);
        p = {cx + r * std::cos(theta), cy + r * std::sin(theta)};
      }
      break;
    }
    case kPerturbedGrid:
      for (Point2D& p : q) {
        p = grid_point(rng);
        const int shift = static_cast<int>(rng.uniform_int(50, 52));
        p.x += static_cast<double>(rng.uniform_int(-1, 1)) *
               std::ldexp(1.0, -shift);
        p.y += static_cast<double>(rng.uniform_int(-1, 1)) *
               std::ldexp(1.0, -shift);
      }
      break;
    case kScaled: {
      const int exponent = static_cast<int>(rng.uniform_int(-1100, 1050));
      const bool grid = rng.bernoulli(0.5);
      for (Point2D& p : q) {
        const Point2D u = grid ? grid_point(rng)
                               : Point2D{rng.next_double(), rng.next_double()};
        p = {std::ldexp(u.x, exponent), std::ldexp(u.y, exponent)};
      }
      break;
    }
    case kLineOffset: {
      // Three points on the x-axis, one 2^-90..2^-120 off it; the
      // determinants are then that offset times O(1), on both sides of
      // the exact code's 1e-30 * scale^2 guard.
      for (Point2D& p : q) p = {rng.next_double(), 0.0};
      const int shift = static_cast<int>(rng.uniform_int(90, 120));
      q[rng.next_below(4)].y = (rng.bernoulli(0.5) ? 1.0 : -1.0) *
                               std::ldexp(1.0, -shift);
      if (rng.bernoulli(0.5)) {  // the y-axis instead
        for (Point2D& p : q) p = {p.y, p.x};
      }
      break;
    }
    case kExactLine: {
      // 50-bit x times a 3-bit slope is exact, so the four points are
      // exactly collinear (and so also "cocircular") while the double
      // evaluation still rounds; the exact code says kCollinear / false.
      const double slopes[] = {3.0, 5.0, 7.0, -3.0};
      const double k = slopes[rng.next_below(4)];
      for (Point2D& p : q) {
        const double x = mixed_coordinate(rng, 50);
        p = {x, k * x};
      }
      break;
    }
    case kExactTrapezoid: {
      // An isosceles trapezoid (symmetric about the y-axis) is cyclic.
      const double u = std::abs(mixed_coordinate(rng, 53));
      const double v = std::abs(mixed_coordinate(rng, 53));
      const double ya = mixed_coordinate(rng, 53);
      const double yb = mixed_coordinate(rng, 53);
      q = {Point2D{-u, ya}, Point2D{u, ya}, Point2D{v, yb}, Point2D{-v, yb}};
      break;
    }
    case kModeCount:
      break;
  }
  if (mode >= kExactLine && rng.bernoulli(0.5)) {
    for (Point2D& p : q) p = {p.y, p.x};
  }
  return q;
}

std::string describe(const PointQuad& q) {
  std::string out;
  char buf[96];
  for (const Point2D& p : q) {
    std::snprintf(buf, sizeof buf, "(%a, %a) ", p.x, p.y);
    out += buf;
  }
  return out;
}

// The filtered predicates against their __float128 oracles on every
// input mode: orient2d on all four rotations of each quad, and
// in_circumcircle on two. Any disagreement fails, so a dropped guard
// term or a too-small orientation bound shows here before it can change
// a triangulation.
TEST(PredicatesTest, FilteredMatchesExactOracle) {
  constexpr int kCasesPerMode = 20000;
  Rng rng(20241018);
  std::size_t orient_mismatches = 0;
  std::size_t incircle_mismatches = 0;
  std::size_t collinear = 0;           // orient2d said kCollinear
  std::size_t cocircular_outside = 0;  // exactly cocircular, not inside
  std::string first_mismatch;
  for (int m = 0; m < kModeCount; ++m) {
    const auto mode = static_cast<OracleMode>(m);
    for (int i = 0; i < kCasesPerMode; ++i) {
      const PointQuad q = draw_quad(rng, mode);
      for (int r = 0; r < 4; ++r) {
        const Point2D& a = q[r];
        const Point2D& b = q[(r + 1) % 4];
        const Point2D& c = q[(r + 2) % 4];
        const Point2D& p = q[(r + 3) % 4];
        const Orientation o = orient2d(a, b, c);
        if (o != orient2d_exact(a, b, c)) {
          ++orient_mismatches;
          if (first_mismatch.empty()) {
            first_mismatch = "orient2d " + describe(q);
          }
        }
        collinear += o == Orientation::kCollinear;
        if (r % 2 != 0) continue;  // two in-circle rotations per quad
        const bool inside = in_circumcircle(a, b, c, p);
        if (inside != in_circumcircle_exact(a, b, c, p)) {
          ++incircle_mismatches;
          if (first_mismatch.empty()) {
            first_mismatch = "in_circumcircle " + describe(q);
          }
        }
        const bool cocircular = mode == kExactLine || mode == kExactTrapezoid;
        cocircular_outside += cocircular && !inside;
      }
    }
  }
  EXPECT_EQ(orient_mismatches, 0u) << first_mismatch;
  EXPECT_EQ(incircle_mismatches, 0u) << first_mismatch;
  // Exact degeneracies occur and get the exact code's answer; the filter
  // never returns kCollinear, so `collinear` > 0 shows the fallback ran.
  EXPECT_GT(collinear, 0u);
  EXPECT_GT(cocircular_outside, 0u);
}

// ---------- convex hull ----------

TEST(ConvexHullTest, Square) {
  const auto hull = convex_hull(
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.7}});
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_NEAR(polygon_area(hull), 1.0, 1e-12);
}

TEST(ConvexHullTest, CcwOrientation) {
  const auto hull = convex_hull({{0, 0}, {2, 0}, {1, 2}, {1, 0.5}});
  ASSERT_EQ(hull.size(), 3u);
  EXPECT_GT(polygon_area(hull), 0.0);  // CCW => positive area
}

TEST(ConvexHullTest, CollinearCollapsesToExtremes) {
  const auto hull = convex_hull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(hull.size(), 2u);
}

TEST(ConvexHullTest, DuplicatesIgnored) {
  const auto hull = convex_hull({{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(hull.size(), 3u);
}

TEST(ConvexHullTest, SmallInputs) {
  EXPECT_EQ(convex_hull({}).size(), 0u);
  EXPECT_EQ(convex_hull({{1, 2}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1, 2}, {3, 4}}).size(), 2u);
}

TEST(ConvexHullTest, AllPointsInsideHull) {
  Rng rng(55);
  std::vector<Point2D> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  const auto hull = convex_hull(pts);
  // Every input point is inside or on the hull: no right turn when
  // walking hull edges past the point.
  for (const Point2D& p : pts) {
    for (std::size_t i = 0; i < hull.size(); ++i) {
      const Point2D& a = hull[i];
      const Point2D& b = hull[(i + 1) % hull.size()];
      EXPECT_GE(signed_area2(a, b, p), -1e-9);
    }
  }
}

TEST(PolygonTest, AreaOfSquare) {
  const std::vector<Point2D> sq{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_DOUBLE_EQ(polygon_area(sq), 4.0);
}

// ---------- Voronoi ----------

TEST(VoronoiTest, NearestSiteBasic) {
  const std::vector<Point2D> sites{{0.25, 0.5}, {0.75, 0.5}};
  EXPECT_EQ(nearest_site(sites, {0.1, 0.5}), 0u);
  EXPECT_EQ(nearest_site(sites, {0.9, 0.5}), 1u);
}

TEST(VoronoiTest, NearestSiteTieBreakByRank) {
  // Equidistant: the site with smaller (x, y) wins.
  const std::vector<Point2D> sites{{0.75, 0.5}, {0.25, 0.5}};
  EXPECT_EQ(nearest_site(sites, {0.5, 0.5}), 1u);  // (0.25, .5) < (0.75, .5)
}

TEST(VoronoiTest, TwoSitesSplitSquareInHalf) {
  const Rect domain;
  const std::vector<Point2D> sites{{0.25, 0.5}, {0.75, 0.5}};
  const auto areas = voronoi_cell_areas(sites, domain);
  ASSERT_EQ(areas.size(), 2u);
  EXPECT_NEAR(areas[0], 0.5, 1e-9);
  EXPECT_NEAR(areas[1], 0.5, 1e-9);
}

TEST(VoronoiTest, AreasSumToDomainArea) {
  Rng rng(66);
  std::vector<Point2D> sites;
  for (int i = 0; i < 25; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  const Rect domain;
  const auto areas = voronoi_cell_areas(sites, domain);
  const double total = std::accumulate(areas.begin(), areas.end(), 0.0);
  EXPECT_NEAR(total, domain.area(), 1e-6);
  for (double a : areas) EXPECT_GT(a, 0.0);
}

TEST(VoronoiTest, CellContainsItsSite) {
  Rng rng(67);
  std::vector<Point2D> sites;
  for (int i = 0; i < 12; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  const Rect domain;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto cell = voronoi_cell(sites, i, domain);
    ASSERT_GE(cell.size(), 3u);
    // The site is inside its own (convex) cell.
    for (std::size_t k = 0; k < cell.size(); ++k) {
      const Point2D& a = cell[k];
      const Point2D& b = cell[(k + 1) % cell.size()];
      EXPECT_GE(signed_area2(a, b, sites[i]), -1e-9);
    }
  }
}

TEST(VoronoiTest, CellMatchesNearestSiteSampling) {
  Rng rng(68);
  std::vector<Point2D> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  const Rect domain;
  const auto areas = voronoi_cell_areas(sites, domain);
  // Monte-Carlo estimate must agree with exact clipping.
  std::vector<double> mc(sites.size(), 0.0);
  const int samples = 200000;
  for (int s = 0; s < samples; ++s) {
    const Point2D p{rng.next_double(), rng.next_double()};
    mc[nearest_site(sites, p)] += 1.0;
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_NEAR(mc[i] / samples, areas[i], 0.01) << "cell " << i;
  }
}

TEST(RectTest, ContainsAndClamp) {
  const Rect r{0.0, 0.0, 1.0, 2.0};
  EXPECT_TRUE(r.contains({0.5, 1.5}));
  EXPECT_FALSE(r.contains({1.5, 0.5}));
  EXPECT_EQ(r.clamp({2.0, -1.0}), (Point2D{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(r.area(), 2.0);
}

// ---------- CVT / C-regulation ----------

TEST(CvtTest, EnergyDecreases) {
  Rng rng(70);
  std::vector<Point2D> sites;
  for (int i = 0; i < 10; ++i) {
    // Deliberately clustered start: lots of room to improve.
    sites.push_back({0.1 + 0.05 * rng.next_double(),
                     0.1 + 0.05 * rng.next_double()});
  }
  CvtOptions opt;
  opt.samples_per_iteration = 2000;
  opt.max_iterations = 40;
  const CvtResult r = c_regulation(sites, opt, rng);
  ASSERT_EQ(r.energy_history.size(), 40u);
  EXPECT_LT(r.energy_history.back(), r.energy_history.front() * 0.5);
}

TEST(CvtTest, EqualizesVoronoiCellAreas) {
  Rng rng(71);
  std::vector<Point2D> sites;
  for (int i = 0; i < 16; ++i) {
    sites.push_back({rng.next_double() * 0.3, rng.next_double() * 0.3});
  }
  const Rect domain;
  const double before_cov = [&] {
    const auto areas = voronoi_cell_areas(sites, domain);
    double mean = 0, var = 0;
    for (double a : areas) mean += a;
    mean /= areas.size();
    for (double a : areas) var += (a - mean) * (a - mean);
    return std::sqrt(var / areas.size()) / mean;
  }();

  CvtOptions opt;
  opt.samples_per_iteration = 4000;
  opt.max_iterations = 60;
  const CvtResult r = c_regulation(sites, opt, rng);

  const auto areas = voronoi_cell_areas(r.sites, domain);
  double mean = 0, var = 0;
  for (double a : areas) mean += a;
  mean /= areas.size();
  for (double a : areas) var += (a - mean) * (a - mean);
  const double after_cov = std::sqrt(var / areas.size()) / mean;

  EXPECT_LT(after_cov, before_cov * 0.5);
  EXPECT_LT(after_cov, 0.35);
}

TEST(CvtTest, SitesStayInDomain) {
  Rng rng(72);
  std::vector<Point2D> sites{{0.5, 0.5}, {0.51, 0.5}, {0.5, 0.51}};
  CvtOptions opt;
  opt.max_iterations = 30;
  const CvtResult r = c_regulation(sites, opt, rng);
  for (const Point2D& s : r.sites) {
    EXPECT_TRUE(opt.domain.contains(s));
  }
}

TEST(CvtTest, ClampsSitesOutsideDomain) {
  Rng rng(73);
  std::vector<Point2D> sites{{-1.0, 2.0}, {0.5, 0.5}};
  CvtOptions opt;
  opt.max_iterations = 1;
  const CvtResult r = c_regulation(sites, opt, rng);
  for (const Point2D& s : r.sites) {
    EXPECT_TRUE(opt.domain.contains(s));
  }
}

TEST(CvtTest, ZeroIterationsIsIdentity) {
  Rng rng(74);
  const std::vector<Point2D> sites{{0.2, 0.3}, {0.8, 0.7}};
  CvtOptions opt;
  opt.max_iterations = 0;
  const CvtResult r = c_regulation(sites, opt, rng);
  EXPECT_EQ(r.sites, sites);
  EXPECT_EQ(r.iterations_run, 0u);
}

TEST(CvtTest, EmptySitesHandled) {
  Rng rng(76);
  CvtOptions opt;
  const CvtResult r = c_regulation({}, opt, rng);
  EXPECT_TRUE(r.sites.empty());
}

TEST(CvtTest, SingleSiteMovesTowardDomainCenter) {
  Rng rng(77);
  std::vector<Point2D> sites{{0.05, 0.05}};
  CvtOptions opt;
  opt.samples_per_iteration = 5000;
  opt.max_iterations = 10;
  const CvtResult r = c_regulation(sites, opt, rng);
  EXPECT_NEAR(r.sites[0].x, 0.5, 0.05);
  EXPECT_NEAR(r.sites[0].y, 0.5, 0.05);
}

TEST(CvtTest, DensityBiasesSites) {
  // With density concentrated on the left half, sites should end up
  // mostly on the left.
  Rng rng(78);
  std::vector<Point2D> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  CvtOptions opt;
  opt.samples_per_iteration = 3000;
  opt.max_iterations = 40;
  opt.density = [](const Point2D& p) { return p.x < 0.5 ? 1.0 : 0.02; };
  opt.density_bound = 1.0;
  const CvtResult r = c_regulation(sites, opt, rng);
  int left = 0;
  for (const Point2D& s : r.sites) left += (s.x < 0.5);
  EXPECT_GE(left, 6);
}

}  // namespace
}  // namespace gred::geometry
