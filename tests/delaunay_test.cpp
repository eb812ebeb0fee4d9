// Delaunay triangulation: structural validity, the empty-circumcircle
// property, and the guaranteed-delivery property of greedy routing that
// GRED's correctness rests on (Section II-B). Includes parameterized
// random sweeps over point-set sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "geometry/convex_hull.hpp"
#include "geometry/delaunay.hpp"

namespace gred::geometry {
namespace {

// The deep validator: empty circumcircles and CCW triangles, distinct
// sites, and a well-formed adjacency.
::testing::AssertionResult valid_delaunay(const DelaunayTriangulation& dt) {
  const check::CheckReport report = check::validate_delaunay(dt);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

std::vector<Point2D> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2D> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  return pts;
}

// ---------- structural tests ----------

TEST(DelaunayTest, EmptyAndSingle) {
  auto d0 = DelaunayTriangulation::build({});
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(d0.value().size(), 0u);
  EXPECT_EQ(d0.value().edge_count(), 0u);

  auto d1 = DelaunayTriangulation::build({{0.5, 0.5}});
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1.value().size(), 1u);
  EXPECT_TRUE(d1.value().neighbors(0).empty());
  EXPECT_EQ(d1.value().nearest_site({0.0, 0.0}), 0u);
}

TEST(DelaunayTest, TwoPointsAreNeighbors) {
  auto d = DelaunayTriangulation::build({{0.0, 0.0}, {1.0, 1.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().are_neighbors(0, 1));
  EXPECT_EQ(d.value().edge_count(), 1u);
}

TEST(DelaunayTest, TriangleIsItsOwnDT) {
  auto d = DelaunayTriangulation::build({{0.0, 0.0}, {1.0, 0.0}, {0.5, 1.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().triangles().size(), 1u);
  EXPECT_EQ(d.value().edge_count(), 3u);
  EXPECT_TRUE(valid_delaunay(d.value()));
}

TEST(DelaunayTest, SquareHasTwoTriangles) {
  auto d = DelaunayTriangulation::build(
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().triangles().size(), 2u);
  EXPECT_EQ(d.value().edge_count(), 5u);
  EXPECT_TRUE(valid_delaunay(d.value()));
}

TEST(DelaunayTest, DuplicatePointsRejected) {
  auto d = DelaunayTriangulation::build({{0.1, 0.2}, {0.1, 0.2}, {0.5, 0.5}});
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().code, ErrorCode::kInvalidArgument);
}

TEST(DelaunayTest, CollinearDegeneratesToChain) {
  auto d = DelaunayTriangulation::build(
      {{0.0, 0.0}, {3.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().triangles().empty());
  // Chain along x: 0 - 2 - 3 - 1 (sorted by x).
  EXPECT_TRUE(d.value().are_neighbors(0, 2));
  EXPECT_TRUE(d.value().are_neighbors(2, 3));
  EXPECT_TRUE(d.value().are_neighbors(3, 1));
  EXPECT_FALSE(d.value().are_neighbors(0, 1));
  EXPECT_EQ(d.value().edge_count(), 3u);
}

TEST(DelaunayTest, KnownFlipCase) {
  // Four points where the naive triangulation of insertion order would
  // violate the empty-circle property; the DT must pick the other
  // diagonal. Quad: (0,0), (10,0), (10.5,1), (0.5,1) — thin.
  auto d = DelaunayTriangulation::build(
      {{0.0, 0.0}, {10.0, 0.0}, {10.5, 1.0}, {0.5, 1.0}});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(valid_delaunay(d.value()));
  EXPECT_EQ(d.value().triangles().size(), 2u);
}

TEST(DelaunayTest, GridWithCocircularPoints) {
  // A 4x4 grid has many cocircular quadruples; the builder must still
  // produce a valid triangulation (some diagonal choice).
  std::vector<Point2D> pts;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      pts.push_back({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto d = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(d.ok());
  // Euler: for n points with h on the hull, triangles = 2n - h - 2.
  EXPECT_EQ(d.value().triangles().size(), 2u * 16 - 12 - 2);
  // Every point must have at least 2 neighbors.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_GE(d.value().neighbors(i).size(), 2u);
  }
}

TEST(DelaunayTest, DeterministicWithExplicitRng) {
  const auto pts = random_points(40, 123);
  Rng r1(7), r2(7);
  auto a = DelaunayTriangulation::build(pts, &r1);
  auto b = DelaunayTriangulation::build(pts, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().edge_count(), b.value().edge_count());
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a.value().neighbors(i), b.value().neighbors(i));
  }
}

TEST(DelaunayTest, InsertionOrderInvariance) {
  // The DT of a generic point set is unique, so different randomized
  // insertion orders must give identical adjacency.
  const auto pts = random_points(30, 99);
  Rng r1(1), r2(424242);
  auto a = DelaunayTriangulation::build(pts, &r1);
  auto b = DelaunayTriangulation::build(pts, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.value().neighbors(i), b.value().neighbors(i)) << i;
  }
}

// ---------- parameterized property sweep ----------

class DelaunayPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
 protected:
  void SetUp() override {
    const auto [n, seed] = GetParam();
    auto built = DelaunayTriangulation::build(random_points(n, seed));
    ASSERT_TRUE(built.ok()) << built.error().to_string();
    dt_ = std::move(built).value();
  }
  DelaunayTriangulation dt_;
};

TEST_P(DelaunayPropertyTest, EmptyCircumcircles) {
  EXPECT_TRUE(valid_delaunay(dt_));
}

TEST_P(DelaunayPropertyTest, EulerFormula) {
  // triangles = 2n - h - 2, edges = 3n - h - 3 (n >= 3, generic).
  const auto hull = convex_hull(dt_.points());
  const std::size_t n = dt_.size();
  const std::size_t h = hull.size();
  EXPECT_EQ(dt_.triangles().size(), 2 * n - h - 2);
  EXPECT_EQ(dt_.edge_count(), 3 * n - h - 3);
}

TEST_P(DelaunayPropertyTest, AdjacencySymmetric) {
  for (std::size_t i = 0; i < dt_.size(); ++i) {
    for (std::size_t j : dt_.neighbors(i)) {
      EXPECT_TRUE(dt_.are_neighbors(j, i));
      EXPECT_NE(i, j);
    }
  }
}

TEST_P(DelaunayPropertyTest, GreedyAlwaysReachesNearestSite) {
  // THE property GRED relies on: from any start, greedy routing toward
  // any target point terminates at the globally nearest site.
  Rng rng(std::get<1>(GetParam()) ^ 0xabcdef);
  for (int trial = 0; trial < 200; ++trial) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t start = rng.next_below(dt_.size());
    const auto path = dt_.greedy_route(start, target);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), start);
    EXPECT_EQ(path.back(), dt_.nearest_site(target));
  }
}

TEST_P(DelaunayPropertyTest, GreedyPathStrictlyApproaches) {
  Rng rng(std::get<1>(GetParam()) ^ 0x123456);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t start = rng.next_below(dt_.size());
    const auto path = dt_.greedy_route(start, target);
    for (std::size_t k = 1; k < path.size(); ++k) {
      EXPECT_TRUE(closer_to(target, dt_.points()[path[k]],
                            dt_.points()[path[k - 1]]));
    }
    // No repeated sites.
    std::set<std::size_t> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size());
  }
}

TEST_P(DelaunayPropertyTest, GreedyFromNearestIsNoop) {
  Rng rng(std::get<1>(GetParam()) ^ 0x777);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t home = dt_.nearest_site(target);
    EXPECT_EQ(dt_.greedy_next(home, target), kNoSite);
    const auto path = dt_.greedy_route(home, target);
    EXPECT_EQ(path.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPointSets, DelaunayPropertyTest,
    ::testing::Values(std::make_tuple(4, 11ull), std::make_tuple(8, 22ull),
                      std::make_tuple(16, 33ull), std::make_tuple(32, 44ull),
                      std::make_tuple(64, 55ull), std::make_tuple(128, 66ull),
                      std::make_tuple(200, 77ull)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- clustered (adversarial) distributions ----------

TEST(DelaunayStressTest, TwoTightClusters) {
  Rng rng(88);
  std::vector<Point2D> pts;
  for (int i = 0; i < 25; ++i) {
    pts.push_back({0.1 + 0.01 * rng.next_double(),
                   0.1 + 0.01 * rng.next_double()});
    pts.push_back({0.9 + 0.01 * rng.next_double(),
                   0.9 + 0.01 * rng.next_double()});
  }
  auto d = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(valid_delaunay(d.value()));
  // Greedy still delivers across the gap.
  for (int trial = 0; trial < 100; ++trial) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t start = rng.next_below(pts.size());
    const auto path = d.value().greedy_route(start, target);
    EXPECT_EQ(path.back(), d.value().nearest_site(target));
  }
}

// ---------- incremental insertion (Section VI node join) ----------

TEST(DelaunayInsertTest, MatchesFromScratchBuild) {
  // Insert points one by one; after every insertion the adjacency must
  // equal the DT built from scratch on the same prefix.
  const auto pts = random_points(40, 4242);
  auto incr = DelaunayTriangulation::build(
      std::vector<Point2D>(pts.begin(), pts.begin() + 4));
  ASSERT_TRUE(incr.ok());
  DelaunayTriangulation dt = std::move(incr).value();

  for (std::size_t n = 4; n < pts.size(); ++n) {
    auto idx = dt.insert(pts[n]);
    ASSERT_TRUE(idx.ok()) << idx.error().to_string();
    EXPECT_EQ(idx.value(), n);

    auto fresh = DelaunayTriangulation::build(
        std::vector<Point2D>(pts.begin(), pts.begin() + n + 1));
    ASSERT_TRUE(fresh.ok());
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_EQ(dt.neighbors(i), fresh.value().neighbors(i))
          << "after inserting point " << n << ", site " << i;
    }
  }
  EXPECT_TRUE(valid_delaunay(dt));
}

TEST(DelaunayInsertTest, DuplicateRejected) {
  auto built = DelaunayTriangulation::build(random_points(10, 1));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  const Point2D existing = dt.points()[3];
  auto r = dt.insert(existing);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(dt.size(), 10u);  // unchanged
}

TEST(DelaunayInsertTest, GrowsFromDegenerateStates) {
  // Start empty-ish and grow through every degenerate regime.
  auto built = DelaunayTriangulation::build({{0.0, 0.0}});
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();

  ASSERT_TRUE(dt.insert({1.0, 0.0}).ok());   // 2 points
  EXPECT_TRUE(dt.are_neighbors(0, 1));
  ASSERT_TRUE(dt.insert({2.0, 0.0}).ok());   // collinear chain
  EXPECT_TRUE(dt.triangles().empty());
  EXPECT_TRUE(dt.are_neighbors(1, 2));
  ASSERT_TRUE(dt.insert({1.0, 1.0}).ok());   // first real triangle(s)
  EXPECT_FALSE(dt.triangles().empty());
  EXPECT_TRUE(valid_delaunay(dt));
  ASSERT_TRUE(dt.insert({0.5, -2.0}).ok());  // below the chain
  EXPECT_TRUE(valid_delaunay(dt));
  EXPECT_EQ(dt.size(), 5u);
}

TEST(DelaunayInsertTest, GreedyDeliveryHoldsAfterInsertions) {
  auto built = DelaunayTriangulation::build(random_points(20, 77));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  Rng rng(78);
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(dt.insert({rng.next_double(), rng.next_double()}).ok());
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t start = rng.next_below(dt.size());
    EXPECT_EQ(dt.greedy_route(start, target).back(),
              dt.nearest_site(target));
  }
}

// ---------- incremental repair: insert / remove ----------

/// Sites of `after` whose neighbour list differs from the one they had
/// in `before`, where after-site j was before-site `old_of[j]` (kNoSite:
/// a new site, which always counts). Losing a removed neighbour counts
/// as a change.
std::vector<std::size_t> changed_sites(const DelaunayTriangulation& before,
                                       const DelaunayTriangulation& after,
                                       const std::vector<std::size_t>& old_of) {
  std::vector<std::size_t> new_of(before.size(), kNoSite);
  for (std::size_t j = 0; j < after.size(); ++j) {
    if (old_of[j] != kNoSite) new_of[old_of[j]] = j;
  }
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < after.size(); ++j) {
    if (old_of[j] == kNoSite) {
      out.push_back(j);
      continue;
    }
    std::vector<std::size_t> was;
    for (const std::size_t k : before.neighbors(old_of[j])) {
      was.push_back(new_of[k]);
    }
    std::sort(was.begin(), was.end());
    if (was != after.neighbors(j)) out.push_back(j);
  }
  return out;
}

/// The repaired triangulation must equal a fresh build of its points,
/// and `affected` must be sorted and cover every changed site.
void expect_repair_exact(const DelaunayTriangulation& before,
                         const DelaunayTriangulation& after,
                         const std::vector<std::size_t>& old_of,
                         const std::vector<std::size_t>& affected) {
  auto fresh = DelaunayTriangulation::build(after.points());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh.value().size(), after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after.neighbors(i), fresh.value().neighbors(i)) << "site " << i;
  }
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
  const std::vector<std::size_t> changed = changed_sites(before, after, old_of);
  EXPECT_TRUE(std::includes(affected.begin(), affected.end(), changed.begin(),
                            changed.end()))
      << changed.size() << " changed, " << affected.size() << " affected";
}

std::vector<std::size_t> every_site(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

/// Inserts `p`, checks the repair, and returns the affected sites.
std::vector<std::size_t> insert_checked(DelaunayTriangulation& dt,
                                        const Point2D& p) {
  const DelaunayTriangulation before = dt;
  std::vector<std::size_t> affected;
  auto idx = dt.insert(p, &affected);
  EXPECT_TRUE(idx.ok());
  if (!idx.ok()) return {};
  EXPECT_EQ(idx.value(), before.size());
  std::vector<std::size_t> old_of = every_site(before.size());
  old_of.push_back(kNoSite);
  expect_repair_exact(before, dt, old_of, affected);
  return affected;
}

/// Removes site `idx`, checks the repair, and returns the affected sites.
std::vector<std::size_t> remove_checked(DelaunayTriangulation& dt,
                                        std::size_t idx) {
  const DelaunayTriangulation before = dt;
  std::vector<std::size_t> affected;
  EXPECT_TRUE(dt.remove(idx, &affected).ok());
  std::vector<std::size_t> old_of;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i != idx) old_of.push_back(i);
  }
  EXPECT_EQ(dt.size(), old_of.size());
  expect_repair_exact(before, dt, old_of, affected);
  return affected;
}

bool on_hull(const DelaunayTriangulation& dt, std::size_t i) {
  const std::vector<Point2D> hull = convex_hull(dt.points());
  return std::find(hull.begin(), hull.end(), dt.points()[i]) != hull.end();
}

TEST(DelaunayRepairTest, InteriorAndHullInsertsAreLocal) {
  auto built = DelaunayTriangulation::build(random_points(40, 501));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  const auto interior = insert_checked(dt, {0.5, 0.5});
  EXPECT_LT(interior.size(), dt.size());
  // Outside the hull: the ghost faces keep the cavity local too.
  const auto hull = insert_checked(dt, {1.5, 0.5});
  EXPECT_LT(hull.size(), dt.size());
}

TEST(DelaunayRepairTest, InteriorRemoveIsLocal) {
  auto built = DelaunayTriangulation::build(random_points(40, 502));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  const std::size_t idx = dt.nearest_site({0.5, 0.5});
  ASSERT_FALSE(on_hull(dt, idx));
  const auto affected = remove_checked(dt, idx);
  EXPECT_FALSE(affected.empty());
  EXPECT_LT(affected.size(), dt.size());
}

TEST(DelaunayRepairTest, HullRemoveRebuildsAndListsEverySite) {
  auto built = DelaunayTriangulation::build(random_points(40, 503));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  std::size_t idx = 0;
  while (!on_hull(dt, idx)) ++idx;
  EXPECT_EQ(remove_checked(dt, idx), every_site(39));
}

TEST(DelaunayRepairTest, TinyAndCollinearStatesListEverySite) {
  // Fewer than three sites: insert rebuilds.
  auto pair = DelaunayTriangulation::build({{0.1, 0.1}, {0.9, 0.2}});
  ASSERT_TRUE(pair.ok());
  DelaunayTriangulation dt = std::move(pair).value();
  EXPECT_EQ(insert_checked(dt, {0.4, 0.8}), every_site(3));
  // Four sites or fewer: remove rebuilds, interior site included.
  EXPECT_EQ(insert_checked(dt, {0.45, 0.4}).size(), 4u);
  EXPECT_EQ(remove_checked(dt, 3), every_site(3));

  // A collinear chain: inserts on and off the line, and removes, rebuild.
  auto chain = DelaunayTriangulation::build(
      {{0.1, 0.5}, {0.3, 0.5}, {0.5, 0.5}, {0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(chain.ok());
  DelaunayTriangulation line = std::move(chain).value();
  EXPECT_EQ(insert_checked(line, {0.2, 0.5}), every_site(6));
  EXPECT_EQ(remove_checked(line, 2), every_site(5));
  EXPECT_EQ(insert_checked(line, {0.5, 0.9}), every_site(6));
  EXPECT_FALSE(line.triangles().empty());
}

TEST(DelaunayRepairTest, RandomInsertRemoveSequenceStaysExact) {
  auto built = DelaunayTriangulation::build(random_points(30, 504));
  ASSERT_TRUE(built.ok());
  DelaunayTriangulation dt = std::move(built).value();
  Rng rng(505);
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(step);
    if (rng.next_below(2) == 0 && dt.size() > 8) {
      remove_checked(dt, rng.next_below(dt.size()));
    } else {
      insert_checked(dt, {rng.next_double(), rng.next_double()});
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  EXPECT_TRUE(valid_delaunay(dt));
}

TEST(DelaunayStressTest, NearCollinearBand) {
  Rng rng(89);
  std::vector<Point2D> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.next_double(), 0.5 + 1e-5 * rng.next_double()});
  }
  auto d = DelaunayTriangulation::build(pts);
  ASSERT_TRUE(d.ok());
  for (int trial = 0; trial < 100; ++trial) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t start = rng.next_below(pts.size());
    const auto path = d.value().greedy_route(start, target);
    EXPECT_EQ(path.back(), d.value().nearest_site(target));
  }
}

}  // namespace
}  // namespace gred::geometry
