// Graph container, BFS/Dijkstra/APSP and their delta updates.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::graph {
namespace {

Graph diamond() {
  // 0 - 1 - 3, 0 - 2 - 3, plus slow direct 0-3 (weight 10).
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1, 1.0).ok());
  EXPECT_TRUE(g.add_edge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.add_edge(0, 2, 2.0).ok());
  EXPECT_TRUE(g.add_edge(2, 3, 2.0).ok());
  EXPECT_TRUE(g.add_edge(0, 3, 10.0).ok());
  return g;
}

// ---------- Graph container ----------

TEST(GraphTest, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.add_edge(0, 1).ok());
  EXPECT_TRUE(g.add_edge(1, 2, 2.5).ok());
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.add_node(), 3u);
  EXPECT_EQ(g.node_count(), 4u);
}

TEST(GraphTest, EdgeWeight) {
  Graph g(2);
  ASSERT_TRUE(g.add_edge(0, 1, 3.5).ok());
  auto w = g.edge_weight(0, 1);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w.value(), 3.5);
  EXPECT_FALSE(g.edge_weight(1, 1).ok());
  EXPECT_FALSE(g.edge_weight(5, 0).ok());
}

TEST(GraphTest, RejectsBadEdges) {
  Graph g(3);
  EXPECT_FALSE(g.add_edge(0, 0).ok());        // self loop
  EXPECT_FALSE(g.add_edge(0, 5).ok());        // out of range
  EXPECT_FALSE(g.add_edge(0, 1, 0.0).ok());   // non-positive weight
  EXPECT_FALSE(g.add_edge(0, 1, -1.0).ok());
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  EXPECT_FALSE(g.add_edge(0, 1).ok());        // parallel edge
  EXPECT_FALSE(g.add_edge(1, 0).ok());        // parallel reversed
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g(3);
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(1, 2).ok());
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
}

TEST(GraphTest, RemoveEdgesOf) {
  Graph g = topology::star(5);
  EXPECT_EQ(g.remove_edges_of(0), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(GraphTest, EdgesListedOnce) {
  Graph g = topology::ring(5);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 5u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(GraphTest, DegreeAndNeighbors) {
  Graph g = topology::star(4);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0].to, 0u);
}

// ---------- BFS ----------

TEST(BfsTest, HopDistancesOnRing) {
  const Graph g = topology::ring(6);
  const SsspResult r = bfs(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
  EXPECT_DOUBLE_EQ(r.dist[5], 1.0);
}

TEST(BfsTest, DisconnectedIsUnreachable) {
  Graph g(4);
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  const SsspResult r = bfs(g, 0);
  EXPECT_EQ(r.dist[2], kUnreachable);
}

TEST(BfsTest, IgnoresWeights) {
  const Graph g = diamond();
  const SsspResult r = bfs(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 1.0);  // the weight-10 edge is 1 hop
}

// ---------- Dijkstra ----------

TEST(DijkstraTest, PrefersLightPath) {
  const Graph g = diamond();
  const SsspResult r = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 2.0);  // 0-1-3
}

TEST(DijkstraTest, MatchesBfsOnUnitWeights) {
  Rng rng(5);
  Graph g(30);
  for (int i = 0; i < 70; ++i) {
    const NodeId u = rng.next_below(30);
    const NodeId v = rng.next_below(30);
    if (u != v && !g.has_edge(u, v)) (void)g.add_edge(u, v, 1.0);
  }
  for (NodeId s = 0; s < 30; s += 7) {
    const SsspResult b = bfs(g, s);
    const SsspResult d = dijkstra(g, s);
    for (NodeId t = 0; t < 30; ++t) {
      EXPECT_DOUBLE_EQ(b.dist[t], d.dist[t]) << s << "->" << t;
    }
  }
}

TEST(DijkstraTest, UnreachableNode) {
  Graph g(3);
  ASSERT_TRUE(g.add_edge(0, 1, 1.0).ok());
  const SsspResult r = dijkstra(g, 0);
  EXPECT_EQ(r.dist[2], kUnreachable);
}

// ---------- APSP ----------

TEST(ApspTest, SymmetricDistances) {
  const Graph g = topology::grid(4, 3);
  const ApspResult r = all_pairs_shortest_paths(g);
  for (NodeId i = 0; i < g.node_count(); ++i) {
    for (NodeId j = 0; j < g.node_count(); ++j) {
      EXPECT_DOUBLE_EQ(r.dist(i, j), r.dist(j, i));
    }
    EXPECT_DOUBLE_EQ(r.dist(i, i), 0.0);
  }
}

TEST(ApspTest, PathsAreValidAndShortest) {
  const Graph g = topology::grid(5, 5);
  const ApspResult r = all_pairs_shortest_paths(g);
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId i = rng.next_below(25);
    const NodeId j = rng.next_below(25);
    const auto path = r.path(i, j, g);
    if (i == j) {
      EXPECT_EQ(path, std::vector<NodeId>{i});
      continue;
    }
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), i);
    EXPECT_EQ(path.back(), j);
    EXPECT_EQ(path.size() - 1, static_cast<std::size_t>(r.dist(i, j)));
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      EXPECT_TRUE(g.has_edge(path[k], path[k + 1]));
    }
  }
}

TEST(ApspTest, HopCount) {
  const Graph g = topology::line(4);
  const ApspResult r = all_pairs_shortest_paths(g);
  EXPECT_EQ(r.hop_count(0, 3), 3u);
  EXPECT_EQ(r.hop_count(2, 2), 0u);
}

TEST(ApspTest, HopCountUnreachableIsNoPath) {
  Graph g(3);
  ASSERT_TRUE(g.add_edge(0, 1, 1.0).ok());
  const ApspResult r = all_pairs_shortest_paths(g);
  EXPECT_EQ(r.hop_count(0, 2), kNoPath);
  EXPECT_EQ(r.hop_count(2, 1), kNoPath);
}

TEST(ApspTest, ParallelMatchesSerialExactly) {
  Rng rng(17);
  topology::WaxmanOptions opt;
  opt.node_count = 120;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok());
  const Graph& g = topo.value().graph;

  ThreadPool serial(1);
  ThreadPool parallel(4);
  for (bool weighted : {false, true}) {
    const ApspResult a = all_pairs_shortest_paths(g, weighted, &serial);
    const ApspResult b = all_pairs_shortest_paths(g, weighted, &parallel);
    EXPECT_EQ(a.dist, b.dist) << "weighted=" << weighted;
  }
}

TEST(ApspTest, WeightedMode) {
  const Graph g = diamond();
  const ApspResult r = all_pairs_shortest_paths(g, /*weighted=*/true);
  EXPECT_DOUBLE_EQ(r.dist(0, 3), 2.0);
  EXPECT_EQ(r.path(0, 3, g), (std::vector<NodeId>{0, 1, 3}));
}

TEST(ApspTest, TriangleInequality) {
  Rng rng(9);
  Graph g(20);
  for (int i = 0; i < 19; ++i) (void)g.add_edge(i, i + 1);
  for (int i = 0; i < 15; ++i) {
    const NodeId u = rng.next_below(20);
    const NodeId v = rng.next_below(20);
    if (u != v && !g.has_edge(u, v)) (void)g.add_edge(u, v);
  }
  const ApspResult r = all_pairs_shortest_paths(g);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = 0; j < 20; ++j) {
      for (NodeId k = 0; k < 20; k += 3) {
        EXPECT_LE(r.dist(i, j), r.dist(i, k) + r.dist(k, j) + 1e-9);
      }
    }
  }
}

// ---------- delta APSP ----------

/// A delta update must leave `after` bit-equal to a fresh recompute and
/// list exactly the rows that differ from `before`. A row `before` does
/// not have counts as changed; column `skip` and columns `before` does
/// not have are not compared.
void expect_exact_delta(const ApspResult& before, const ApspResult& after,
                        const ApspDelta& delta, const Graph& g,
                        NodeId skip = kNoNode) {
  EXPECT_TRUE(after.dist == all_pairs_shortest_paths(g, after.weighted).dist);
  std::vector<NodeId> differ;
  for (NodeId s = 0; s < after.dist.size(); ++s) {
    bool row_differs = s >= before.dist.size();
    for (NodeId t = 0; !row_differs && t < before.dist.size(); ++t) {
      row_differs = t != skip && before.dist(s, t) != after.dist(s, t);
    }
    if (row_differs) differ.push_back(s);
  }
  EXPECT_EQ(delta.changed_rows, differ);
}

Graph latency_waxman(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = n;
  opt.min_degree = 3;
  opt.latency_weights = true;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  return std::move(topo).value().graph;
}

TEST(DeltaApspTest, AddEdgeMatchesRecompute) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted);
    // A chord joining the ends of line(8) shortens 6 of its 8 rows.
    Graph line = topology::line(8);
    ApspResult r = all_pairs_shortest_paths(line, weighted);
    ASSERT_TRUE(line.add_edge(0, 7).ok());
    const ApspResult before = r;
    const ApspDelta d = apsp_add_edge(r, line, 0, 7);
    expect_exact_delta(before, r, d, line);
    EXPECT_GT(2 * d.changed_rows.size(), line.node_count());

    Graph g = latency_waxman(60, 31);
    ApspResult wr = all_pairs_shortest_paths(g, weighted);
    Rng rng(32);
    for (int k = 0; k < 20; ++k) {
      const NodeId u = rng.next_below(60);
      const NodeId v = rng.next_below(60);
      if (u == v || g.has_edge(u, v)) continue;
      ASSERT_TRUE(g.add_edge(u, v, 0.5 + rng.next_double()).ok());
      const ApspResult prev = wr;
      expect_exact_delta(prev, wr, apsp_add_edge(wr, g, u, v), g);
    }
  }
}

TEST(DeltaApspTest, RemoveEdgeMatchesRecompute) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted);
    // Cutting ring(8) lengthens 6 of its 8 rows.
    Graph ring = topology::ring(8);
    ApspResult r = all_pairs_shortest_paths(ring, weighted);
    ASSERT_TRUE(ring.remove_edge(0, 1));
    const ApspResult before = r;
    const ApspDelta d = apsp_remove_edge(r, ring, 0, 1, 1.0);
    expect_exact_delta(before, r, d, ring);
    EXPECT_GT(2 * d.changed_rows.size(), ring.node_count());

    // Random cuts, disconnecting ones included.
    Graph g = latency_waxman(60, 41);
    ApspResult wr = all_pairs_shortest_paths(g, weighted);
    Rng rng(42);
    for (int k = 0; k < 20; ++k) {
      const NodeId u = rng.next_below(60);
      if (g.neighbors(u).empty()) continue;
      const EdgeTo e = g.neighbors(u)[rng.next_below(g.neighbors(u).size())];
      ASSERT_TRUE(g.remove_edge(u, e.to));
      const ApspResult prev = wr;
      expect_exact_delta(prev, wr, apsp_remove_edge(wr, g, u, e.to, e.weight),
                         g);
    }
  }
}

TEST(DeltaApspTest, AddNodeMatchesRecompute) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted);
    // A node linked to both ends of line(8) shortcuts 6 of the old rows.
    Graph line = topology::line(8);
    ApspResult r = all_pairs_shortest_paths(line, weighted);
    const NodeId hub = line.add_node();
    ASSERT_TRUE(line.add_edge(hub, 0).ok());
    ASSERT_TRUE(line.add_edge(hub, 7).ok());
    const ApspResult before = r;
    const ApspDelta d = apsp_add_node(r, line, hub);
    expect_exact_delta(before, r, d, line);
    EXPECT_GT(2 * d.changed_rows.size(), line.node_count());

    Graph g = latency_waxman(60, 51);
    ApspResult wr = all_pairs_shortest_paths(g, weighted);
    Rng rng(52);
    for (int k = 0; k < 10; ++k) {
      const NodeId v = g.add_node();
      for (int link = 0; link < 3; ++link) {
        const NodeId u = rng.next_below(v);
        if (!g.has_edge(u, v)) {
          ASSERT_TRUE(g.add_edge(u, v, 0.5 + rng.next_double()).ok());
        }
      }
      const ApspResult prev = wr;
      expect_exact_delta(prev, wr, apsp_add_node(wr, g, v), g);
    }
  }
}

TEST(DeltaApspTest, RemoveNodeEdgesMatchesRecompute) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted);
    // Detaching a node of ring(8) turns the rest into a line.
    Graph ring = topology::ring(8);
    ApspResult r = all_pairs_shortest_paths(ring, weighted);
    const std::vector<EdgeTo> removed = ring.neighbors(0);
    ring.remove_edges_of(0);
    const ApspResult before = r;
    const ApspDelta d = apsp_remove_node_edges(r, ring, 0, removed);
    expect_exact_delta(before, r, d, ring, /*skip=*/0);
    EXPECT_GT(2 * d.changed_rows.size(), ring.node_count());

    Graph g = latency_waxman(60, 61);
    ApspResult wr = all_pairs_shortest_paths(g, weighted);
    Rng rng(62);
    for (int k = 0; k < 10; ++k) {
      const NodeId v = rng.next_below(60);
      const std::vector<EdgeTo> adj = g.neighbors(v);
      g.remove_edges_of(v);
      const ApspResult prev = wr;
      expect_exact_delta(prev, wr, apsp_remove_node_edges(wr, g, v, adj), g,
                         v);
    }
  }
}

}  // namespace
}  // namespace gred::graph
