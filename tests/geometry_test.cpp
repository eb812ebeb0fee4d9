// Points, predicates, convex hull, Voronoi clipping, and the
// C-regulation (CVT) refinement.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

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

TEST(CvtEnergyTest, UniformGridBeatsClumpedSites) {
  Rng rng(79);
  std::vector<Point2D> grid, clump;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      grid.push_back({(i + 0.5) / 3.0, (j + 0.5) / 3.0});
      clump.push_back({0.5 + 0.01 * i, 0.5 + 0.01 * j});
    }
  }
  CvtOptions opt;  // uniform density over the unit square
  Rng r1(1), r2(1);
  const double e_grid = estimate_cvt_energy(grid, opt, 20000, r1);
  const double e_clump = estimate_cvt_energy(clump, opt, 20000, r2);
  EXPECT_LT(e_grid, e_clump);
}

}  // namespace
}  // namespace gred::geometry
