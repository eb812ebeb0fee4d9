// VirtualSpace (M-position + normalization + C-regulation) and the
// multi-hop DT construction.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "core/multihop_dt.hpp"
#include "core/virtual_space.hpp"
#include "geometry/cvt.hpp"
#include "geometry/voronoi.hpp"
#include "graph/shortest_path.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::core {
namespace {

using geometry::Point2D;
using topology::SwitchId;

std::vector<SwitchId> all_switches(const graph::Graph& g) {
  std::vector<SwitchId> out(g.node_count());
  for (SwitchId i = 0; i < g.node_count(); ++i) out[i] = i;
  return out;
}

// ---------- VirtualSpace ----------

TEST(VirtualSpaceTest, RejectsEmptyParticipants) {
  const graph::Graph g = topology::ring(4);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  EXPECT_FALSE(VirtualSpace::build({}, apsp, {}).ok());
}

TEST(VirtualSpaceTest, RejectsBadMargin) {
  const graph::Graph g = topology::ring(4);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  VirtualSpaceOptions opt;
  opt.margin = 0.7;
  EXPECT_FALSE(VirtualSpace::build(all_switches(g), apsp, opt).ok());
}

TEST(VirtualSpaceTest, RejectsDisconnectedParticipants) {
  graph::Graph g(4);
  (void)g.add_edge(0, 1);
  (void)g.add_edge(2, 3);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  EXPECT_FALSE(VirtualSpace::build(all_switches(g), apsp, {}).ok());
}

TEST(VirtualSpaceTest, TinySizes) {
  for (std::size_t n : {1u, 2u, 3u}) {
    const graph::Graph g =
        n == 1 ? graph::Graph(1) : (n == 2 ? topology::line(2)
                                           : topology::ring(3));
    const auto apsp = graph::all_pairs_shortest_paths(g);
    auto vs = VirtualSpace::build(all_switches(g), apsp, {});
    ASSERT_TRUE(vs.ok()) << "n=" << n;
    EXPECT_EQ(vs.value().positions().size(), n);
    std::set<std::pair<double, double>> distinct;
    for (const Point2D& p : vs.value().positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1.0);
      distinct.insert({p.x, p.y});
    }
    EXPECT_EQ(distinct.size(), n);
  }
}

TEST(VirtualSpaceTest, PositionsInUnitSquareAndDistinct) {
  Rng rng(12);
  topology::WaxmanOptions wopt;
  wopt.node_count = 50;
  auto topo = topology::generate_waxman(wopt, rng);
  ASSERT_TRUE(topo.ok());
  const auto apsp = graph::all_pairs_shortest_paths(topo.value().graph);
  auto vs = VirtualSpace::build(all_switches(topo.value().graph), apsp, {});
  ASSERT_TRUE(vs.ok());
  std::set<std::pair<double, double>> distinct;
  for (const Point2D& p : vs.value().positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
    distinct.insert({p.x, p.y});
  }
  EXPECT_EQ(distinct.size(), 50u);
}

TEST(VirtualSpaceTest, EmbeddingPreservesDistanceOrder) {
  // Greedy network embedding: virtual distance should correlate with
  // hop distance. Check rank agreement on a grid (clean geometry).
  const graph::Graph g = topology::grid(6, 6);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  VirtualSpaceOptions opt;
  opt.cvt_iterations = 0;  // test the raw M-position output
  auto vs = VirtualSpace::build(all_switches(g), apsp, opt);
  ASSERT_TRUE(vs.ok());
  EXPECT_LT(vs.value().embedding_stress(), 0.25);

  const auto& pos = vs.value().positions();
  // For node 0 (a corner), the farthest node in hops must be farther in
  // the virtual space than an adjacent node.
  const double d_adj = geometry::distance(pos[0], pos[1]);
  const double d_far = geometry::distance(pos[0], pos[35]);
  EXPECT_GT(d_far, 3.0 * d_adj);
}

TEST(VirtualSpaceTest, NoCvtSkipsRefinement) {
  const graph::Graph g = topology::grid(4, 4);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  VirtualSpaceOptions opt;
  opt.cvt_iterations = 0;
  auto vs = VirtualSpace::build(all_switches(g), apsp, opt);
  ASSERT_TRUE(vs.ok());
  // Without refinement the C-regulation sampling cannot matter...
  VirtualSpaceOptions resampled = opt;
  resampled.seed ^= 0x5eedu;
  resampled.cvt_samples = 10;
  auto same = VirtualSpace::build(all_switches(g), apsp, resampled);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(vs.value().positions(), same.value().positions());
  // ...while a single iteration moves the sites.
  VirtualSpaceOptions refined = opt;
  refined.cvt_iterations = 1;
  auto moved = VirtualSpace::build(all_switches(g), apsp, refined);
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(vs.value().positions(), moved.value().positions());
}

TEST(VirtualSpaceTest, CvtImprovesCellBalance) {
  // After C-regulation the Voronoi cell areas must be more even than
  // before (the paper's whole point in Section IV-B).
  Rng rng(13);
  topology::WaxmanOptions wopt;
  wopt.node_count = 40;
  auto topo = topology::generate_waxman(wopt, rng);
  ASSERT_TRUE(topo.ok());
  const auto apsp = graph::all_pairs_shortest_paths(topo.value().graph);

  VirtualSpaceOptions opt;
  opt.cvt_iterations = 50;
  opt.cvt_samples = 2000;
  auto vs = VirtualSpace::build(all_switches(topo.value().graph), apsp, opt);
  ASSERT_TRUE(vs.ok());
  VirtualSpaceOptions raw_opt = opt;
  raw_opt.cvt_iterations = 0;
  auto raw =
      VirtualSpace::build(all_switches(topo.value().graph), apsp, raw_opt);
  ASSERT_TRUE(raw.ok());

  const geometry::Rect domain;
  auto cov_of = [&](const std::vector<Point2D>& sites) {
    const auto areas = geometry::voronoi_cell_areas(sites, domain);
    double mean = 0, var = 0;
    for (double a : areas) mean += a;
    mean /= static_cast<double>(areas.size());
    for (double a : areas) var += (a - mean) * (a - mean);
    return std::sqrt(var / static_cast<double>(areas.size())) / mean;
  };
  EXPECT_LT(cov_of(vs.value().positions()), cov_of(raw.value().positions()));
}

TEST(VirtualSpaceTest, CvtEnergyRecorded) {
  // The refined positions are C-regulation's 15 iterations from the
  // raw embedding, and the CVT result records each one's energy.
  const graph::Graph g = topology::grid(5, 5);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  VirtualSpaceOptions opt;
  opt.cvt_iterations = 15;
  auto vs = VirtualSpace::build(all_switches(g), apsp, opt);
  ASSERT_TRUE(vs.ok());
  VirtualSpaceOptions raw_opt = opt;
  raw_opt.cvt_iterations = 0;
  auto raw = VirtualSpace::build(all_switches(g), apsp, raw_opt);
  ASSERT_TRUE(raw.ok());
  geometry::CvtOptions cvt;
  cvt.samples_per_iteration = opt.cvt_samples;
  cvt.max_iterations = opt.cvt_iterations;
  cvt.domain = geometry::Rect{0.0, 0.0, 1.0, 1.0};
  Rng rng(opt.seed);
  const geometry::CvtResult refined =
      geometry::c_regulation(raw.value().positions(), cvt, rng);
  EXPECT_EQ(refined.energy_history.size(), 15u);
  EXPECT_EQ(vs.value().positions(), refined.sites);
}

TEST(VirtualSpaceTest, DeterministicForSameSeed) {
  const graph::Graph g = topology::grid(4, 5);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  VirtualSpaceOptions opt;
  opt.seed = 777;
  auto a = VirtualSpace::build(all_switches(g), apsp, opt);
  auto b = VirtualSpace::build(all_switches(g), apsp, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().positions(), b.value().positions());
}

TEST(VirtualSpaceTest, IndexAndNearest) {
  const graph::Graph g = topology::ring(5);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto vs = VirtualSpace::build({0, 2, 4}, apsp, {});
  ASSERT_TRUE(vs.ok());
  EXPECT_EQ(vs.value().index_of(2), 1u);
  EXPECT_EQ(vs.value().index_of(1), VirtualSpace::kNoIndex);
  // nearest_participant of a participant's own position is itself.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(vs.value().nearest_participant(vs.value().positions()[i]),
              vs.value().participants()[i]);
  }
}

TEST(VirtualSpaceTest, AddRemoveParticipant) {
  const graph::Graph g = topology::ring(5);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto built = VirtualSpace::build({0, 1, 2}, apsp, {});
  ASSERT_TRUE(built.ok());
  VirtualSpace vs = std::move(built).value();
  vs.add_participant(3, {0.9, 0.9});
  EXPECT_EQ(vs.index_of(3), 3u);
  EXPECT_EQ(vs.positions().size(), 4u);
  vs.remove_participant(1);
  EXPECT_EQ(vs.index_of(1), VirtualSpace::kNoIndex);
  EXPECT_EQ(vs.positions().size(), 3u);
  vs.remove_participant(99);  // no-op
  EXPECT_EQ(vs.positions().size(), 3u);
}

TEST(VirtualSpaceTest, CollidingJoinsOnTheBoundaryStayInTheUnitSquare) {
  // Two joins at the corner (1, 1): the second collides and is nudged
  // apart. The nudge must point inward, or the space leaves [0,1]^2
  // and from_positions (snapshot restore) rejects it.
  const graph::Graph g = topology::ring(8);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto built = VirtualSpace::build({0, 1, 2, 3, 4, 5}, apsp, {});
  ASSERT_TRUE(built.ok());
  VirtualSpace vs = std::move(built).value();
  vs.add_participant(6, {1.0, 1.0});
  vs.add_participant(7, {1.0, 1.0});
  const std::vector<Point2D>& pos = vs.positions();
  ASSERT_EQ(pos.size(), 8u);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_GE(pos[i].x, 0.0);
    EXPECT_LE(pos[i].x, 1.0);
    EXPECT_GE(pos[i].y, 0.0);
    EXPECT_LE(pos[i].y, 1.0);
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      EXPECT_FALSE(pos[i] == pos[j]) << i << " and " << j;
    }
  }
  auto restored = VirtualSpace::from_positions(vs.participants(), pos, apsp);
  EXPECT_TRUE(restored.ok()) << restored.error().to_string();
}

// ---------- MultiHopDT ----------

TEST(MultiHopDtTest, SizeMismatchRejected) {
  const graph::Graph g = topology::ring(4);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  EXPECT_FALSE(
      MultiHopDT::build({0, 1}, {{0.1, 0.1}}, g, apsp).ok());
}

TEST(MultiHopDtTest, RingWithCrossEmbedding) {
  // 6-ring: DT in the virtual space will connect some non-adjacent
  // switches; those edges must resolve to relay paths.
  const graph::Graph g = topology::ring(6);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto vs = VirtualSpace::build(all_switches(g), apsp, {});
  ASSERT_TRUE(vs.ok());
  auto dt = MultiHopDT::build(vs.value().participants(),
                              vs.value().positions(), g, apsp);
  ASSERT_TRUE(dt.ok()) << dt.error().to_string();

  bool found_vlink = false;
  for (SwitchId sw = 0; sw < 6; ++sw) {
    for (const DtNeighborInfo& info : dt.value().candidates_of(sw)) {
      if (info.physical) {
        EXPECT_EQ(info.first_hop, info.neighbor);
        EXPECT_EQ(info.path_length, 1u);
        EXPECT_TRUE(g.has_edge(sw, info.neighbor));
      } else {
        found_vlink = true;
        EXPECT_GT(info.path_length, 1u);
        EXPECT_TRUE(g.has_edge(sw, info.first_hop));
      }
    }
  }
  EXPECT_TRUE(found_vlink);
  EXPECT_GT(dt.value().mean_vlink_length(), 1.0);
}

TEST(MultiHopDtTest, RelayEntriesFormValidChains) {
  Rng rng(14);
  topology::WaxmanOptions wopt;
  wopt.node_count = 30;
  wopt.min_degree = 2;
  auto topo = topology::generate_waxman(wopt, rng);
  ASSERT_TRUE(topo.ok());
  const graph::Graph& g = topo.value().graph;
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto vs = VirtualSpace::build(all_switches(g), apsp, {});
  ASSERT_TRUE(vs.ok());
  auto dt = MultiHopDT::build(vs.value().participants(),
                              vs.value().positions(), g, apsp);
  ASSERT_TRUE(dt.ok());

  // Every relay entry must sit on a physical link chain: pred-holder
  // and holder-succ must be physical edges.
  for (const auto& [holder, relays] : dt.value().relay_entries()) {
    for (const sden::RelayEntry& r : relays) {
      EXPECT_TRUE(g.has_edge(holder, r.pred))
          << holder << " pred " << r.pred;
      EXPECT_TRUE(g.has_edge(holder, r.succ))
          << holder << " succ " << r.succ;
      EXPECT_NE(r.dest, holder);
      EXPECT_NE(r.sour, holder);
    }
  }
}

TEST(MultiHopDtTest, CandidatesCoverAllDtNeighbors) {
  const graph::Graph g = topology::grid(4, 4);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto vs = VirtualSpace::build(all_switches(g), apsp, {});
  ASSERT_TRUE(vs.ok());
  auto built = MultiHopDT::build(vs.value().participants(),
                                 vs.value().positions(), g, apsp);
  ASSERT_TRUE(built.ok());
  const MultiHopDT& dt = built.value();

  const auto& tri = dt.triangulation();
  for (std::size_t i = 0; i < 16; ++i) {
    std::set<SwitchId> candidates;
    for (const DtNeighborInfo& info : dt.candidates_of(i)) {
      candidates.insert(info.neighbor);
    }
    for (std::size_t j : tri.neighbors(i)) {
      EXPECT_TRUE(candidates.count(dt.participants()[j]))
          << "switch " << i << " missing DT neighbor " << j;
    }
  }
}

TEST(MultiHopDtTest, NonParticipantCanBeRelay) {
  // Line 0-1-2 where switch 1 has no servers: participants {0, 2} are
  // DT neighbors whose virtual link relays through 1.
  const graph::Graph g = topology::line(3);
  const auto apsp = graph::all_pairs_shortest_paths(g);
  auto vs = VirtualSpace::build({0, 2}, apsp, {});
  ASSERT_TRUE(vs.ok());
  auto dt = MultiHopDT::build({0, 2}, vs.value().positions(), g, apsp);
  ASSERT_TRUE(dt.ok());
  ASSERT_EQ(dt.value().candidates_of(0).size(), 1u);
  EXPECT_FALSE(dt.value().candidates_of(0)[0].physical);
  EXPECT_EQ(dt.value().candidates_of(0)[0].first_hop, 1u);
  ASSERT_TRUE(dt.value().relay_entries().count(1));
  EXPECT_EQ(dt.value().relay_entries().at(1).size(), 2u);  // both directions
}

}  // namespace
}  // namespace gred::core
