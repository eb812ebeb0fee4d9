#include "geometry/site_grid.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geometry/cvt.hpp"
#include "geometry/point.hpp"
#include "geometry/voronoi.hpp"

namespace gred::geometry {
namespace {

/// Queries that stress both of nearest()'s answer paths: every site
/// itself (distance 0, and exact ties among coincident sites), the
/// midpoint of each site and a random partner (a tie between the pair
/// wherever the halving is exact), and points far outside the grid,
/// up to 1e200, where every squared distance overflows.
std::vector<Point2D> probe_queries(const std::vector<Point2D>& sites,
                                   Rng& rng) {
  std::vector<Point2D> queries = sites;
  for (const Point2D& a : sites) {
    const Point2D& b = sites[rng.next_below(sites.size())];
    queries.push_back({0.5 * (a.x + b.x), 0.5 * (a.y + b.y)});
  }
  for (const double far : {-1e200, -1e6, -40.0, 40.0, 1e6, 1e200}) {
    queries.push_back({far, rng.next_double()});
    queries.push_back({rng.next_double(), far});
    queries.push_back({far, far});
    queries.push_back({far, -far});
  }
  return queries;
}

/// nearest() must name nearest_site's answer for every query.
void expect_brute_force(const std::vector<Point2D>& sites, const Rect& domain,
                        const std::vector<Point2D>& queries,
                        const std::string& what) {
  const SiteGrid grid(sites, domain);
  for (const Point2D& p : queries) {
    EXPECT_EQ(grid.nearest(p), nearest_site(sites, p))
        << what << ": query (" << p.x << ", " << p.y << ")";
  }
}

TEST(SiteGridTest, EmptyGridReturnsNoSite) {
  SiteGrid grid;
  EXPECT_EQ(grid.nearest({0.5, 0.5}), kNoSite);
  SiteGrid explicit_empty({}, Rect{});
  EXPECT_EQ(explicit_empty.nearest({0.5, 0.5}), kNoSite);
}

TEST(SiteGridTest, SingleSiteAlwaysWins) {
  SiteGrid grid({{0.25, 0.75}}, Rect{});
  EXPECT_EQ(grid.nearest({0.0, 0.0}), 0u);
  EXPECT_EQ(grid.nearest({0.25, 0.75}), 0u);
  EXPECT_EQ(grid.nearest({42.0, -17.0}), 0u);
}

TEST(SiteGridTest, AgreesWithBruteForceOnRandomQueries) {
  Rng rng(9001);
  std::vector<Point2D> uniform;
  for (int i = 0; i < 300; ++i) {
    uniform.push_back({rng.next_double(), rng.next_double()});
  }
  // Sites outside the unit-square domain: the grid spans their bounding
  // box instead.
  std::vector<Point2D> outside;
  for (int i = 0; i < 200; ++i) {
    outside.push_back({rng.uniform(-2.0, 3.0), rng.uniform(-0.5, 4.0)});
  }
  // Collinear sites, along a row of cells and along the diagonal. A
  // query several rows off the line finds its block empty (the ring
  // search answers); one beside the line is answered from its list.
  std::vector<Point2D> row;
  std::vector<Point2D> diagonal;
  for (int i = 0; i < 60; ++i) {
    row.push_back({i / 59.0, 0.5});
    diagonal.push_back({i / 59.0, i / 59.0});
  }
  for (const auto& [sites, what] :
       {std::pair{uniform, "uniform"}, std::pair{outside, "outside"},
        std::pair{row, "row"}, std::pair{diagonal, "diagonal"}}) {
    std::vector<Point2D> queries = probe_queries(sites, rng);
    for (int q = 0; q < 1000; ++q) {
      // Mostly in-domain queries, some well outside the indexed box.
      const double span = (q % 5 == 0) ? 3.0 : 1.0;
      const double off = (q % 5 == 0) ? -1.0 : 0.0;
      queries.push_back(
          {off + span * rng.next_double(), off + span * rng.next_double()});
    }
    expect_brute_force(sites, Rect{}, queries, what);
  }
}

TEST(SiteGridTest, AgreesWithBruteForceOnBoundaryAndTiePoints) {
  // Regular lattice: queries on cell corners and midpoints are exactly
  // equidistant from several sites, exercising the tie-break order.
  std::vector<Point2D> sites;
  for (int i = 0; i <= 4; ++i) {
    for (int j = 0; j <= 4; ++j) {
      sites.push_back({i / 4.0, j / 4.0});
    }
  }
  const SiteGrid grid(sites, Rect{});
  std::vector<Point2D> queries;
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) {
      queries.push_back({i / 8.0, j / 8.0});  // corners and midpoints
    }
  }
  queries.push_back({0.0, 0.0});
  queries.push_back({1.0, 1.0});
  queries.push_back({-0.125, 0.5});
  queries.push_back({1.125, 0.5});
  for (const Point2D& p : queries) {
    EXPECT_EQ(grid.nearest(p), nearest_site(sites, p))
        << "query (" << p.x << ", " << p.y << ")";
  }
}

TEST(SiteGridTest, DuplicateSitesResolveToLowestIndex) {
  const std::vector<Point2D> sites = {
      {0.5, 0.5}, {0.2, 0.2}, {0.5, 0.5}, {0.5, 0.5}};
  const SiteGrid grid(sites, Rect{});
  EXPECT_EQ(grid.nearest({0.5, 0.5}), 0u);
  EXPECT_EQ(grid.nearest({0.6, 0.6}), 0u);
  EXPECT_EQ(nearest_site(sites, {0.5, 0.5}), 0u);
}

// nearest() answers from the query cell's neighbourhood list when no
// site outside the cell's 3 x 3 block can beat the list's winner, and
// from the ring search otherwise. These sets drive each path (no
// accessor says which one answered; the brute force checks both):
// - 1 to 8 sites: the grid is 1 or 2 cells a side, every block spans
//   it, and the list answers every query with a finite distance; only
//   the 1e200 queries, whose squared distances all overflow, leave the
//   list without a winner and go to the ring search.
// - A duplicated lattice queried on the grid's cell corners and cell
//   midpoints: exact ties between lattice sites, and coincident sites
//   whose lowest index must win. Queries on a block border, where the
//   gap equals a winning distance, go to the ring search; the rest are
//   answered from the list.
// - Sets of tight clusters plus a few scattered sites: a query's block
//   often holds only a scattered site while a cluster just beyond one
//   of the block's borders is nearer, so the gap test must send the
//   query to the ring search, on every side of the block.
// - A tight cluster in one corner queried from the far corner: the
//   query's block is empty, so only the ring search can answer. The
//   queries at the cluster's own sites are answered from the list.
TEST(SiteGridTest, ListAndRingSearchAgreeWithBruteForce) {
  Rng rng(2029);
  for (int set = 0; set < 400; ++set) {
    std::vector<Point2D> sites;
    const std::size_t n = 1 + static_cast<std::size_t>(set % 8);
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse coordinates half the time, so ties and duplicates occur.
      const auto coarse = [&rng] {
        return static_cast<double>(rng.next_below(4)) / 3.0;
      };
      sites.push_back(set % 2 == 0
                          ? Point2D{rng.next_double(), rng.next_double()}
                          : Point2D{coarse(), coarse()});
    }
    std::vector<Point2D> queries = probe_queries(sites, rng);
    for (int q = 0; q < 20; ++q) {
      queries.push_back({rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)});
    }
    expect_brute_force(sites, Rect{}, queries,
                       "set " + std::to_string(set));
  }

  // Lattice every quarter, each site twice and the centre three times:
  // 51 sites, a 7 x 7 grid over the unit square.
  std::vector<Point2D> lattice;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i <= 4; ++i) {
      for (int j = 0; j <= 4; ++j) lattice.push_back({i / 4.0, j / 4.0});
    }
  }
  lattice.push_back({0.5, 0.5});
  std::vector<Point2D> corners = probe_queries(lattice, rng);
  for (int i = 0; i <= 14; ++i) {
    for (int j = 0; j <= 14; ++j) corners.push_back({i / 14.0, j / 14.0});
  }
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) corners.push_back({i / 8.0, j / 8.0});
  }
  expect_brute_force(lattice, Rect{}, corners, "lattice");

  for (int set = 0; set < 200; ++set) {
    std::vector<Point2D> centres;
    for (int c = 0; c <= set % 3; ++c) {
      centres.push_back({rng.next_double(), rng.next_double()});
    }
    const double radius = rng.uniform(0.002, 0.05);
    std::vector<Point2D> sites;
    const std::size_t n = 9 + rng.next_below(120);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.1)) {
        sites.push_back({rng.next_double(), rng.next_double()});
        continue;
      }
      const Point2D& c = centres[rng.next_below(centres.size())];
      sites.push_back({c.x + rng.uniform(-radius, radius),
                       c.y + rng.uniform(-radius, radius)});
    }
    std::vector<Point2D> queries = probe_queries(sites, rng);
    for (int q = 0; q < 100; ++q) {
      queries.push_back({rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)});
    }
    expect_brute_force(sites, Rect{}, queries,
                       "clusters " + std::to_string(set));
  }

  // 40 sites within 0.005 of (0.9, 0.9): a 6 x 6 grid whose blocks
  // around the lower-left cells hold no site.
  std::vector<Point2D> cluster;
  for (int i = 0; i < 40; ++i) {
    cluster.push_back({0.9 + 0.005 * rng.next_double(),
                       0.9 + 0.005 * rng.next_double()});
  }
  std::vector<Point2D> from_afar = probe_queries(cluster, rng);
  for (int q = 0; q < 500; ++q) {
    from_afar.push_back({0.3 * rng.next_double(), 0.3 * rng.next_double()});
  }
  expect_brute_force(cluster, Rect{}, from_afar, "cluster");
}

TEST(CvtDeterminismTest, ParallelPoolReproducesSerialExactly) {
  Rng site_rng(31);
  std::vector<Point2D> sites;
  for (int i = 0; i < 60; ++i) {
    sites.push_back({site_rng.next_double(), site_rng.next_double()});
  }

  ThreadPool serial(1);
  ThreadPool parallel(4);
  CvtOptions opt;
  opt.samples_per_iteration = 2000;
  opt.max_iterations = 8;

  opt.pool = &serial;
  Rng r1(77);
  const CvtResult a = c_regulation(sites, opt, r1);

  opt.pool = &parallel;
  Rng r2(77);
  const CvtResult b = c_regulation(sites, opt, r2);

  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].x, b.sites[i].x) << "site " << i;
    EXPECT_EQ(a.sites[i].y, b.sites[i].y) << "site " << i;
  }
  EXPECT_EQ(a.energy_history, b.energy_history);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

}  // namespace
}  // namespace gred::geometry
