// Waxman/BRITE generator, preset topologies, and edge-server attachment.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "graph/shortest_path.hpp"
#include "topology/edge_network.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::topology {
namespace {

/// Largest BFS hop distance between any two nodes: kUnreachable when
/// the graph is disconnected.
double hop_diameter(const graph::Graph& g) {
  double worst = 0.0;
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    for (const double d : graph::bfs(g, s).dist) worst = std::max(worst, d);
  }
  return worst;
}

bool connected(const graph::Graph& g) {
  return hop_diameter(g) != graph::kUnreachable;
}

// ---------- presets ----------

TEST(PresetsTest, Testbed6Shape) {
  const graph::Graph g = testbed6();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_TRUE(connected(g));
  EXPECT_LE(hop_diameter(g), 2.0);
}

TEST(PresetsTest, RingLineGridStarComplete) {
  EXPECT_EQ(ring(5).edge_count(), 5u);
  EXPECT_EQ(line(5).edge_count(), 4u);
  EXPECT_EQ(grid(3, 4).edge_count(), 3u * 3 + 4u * 2);  // 17
  EXPECT_EQ(star(6).edge_count(), 5u);
  EXPECT_EQ(complete(5).edge_count(), 10u);
  EXPECT_TRUE(connected(grid(7, 7)));
}

TEST(PresetsTest, DegenerateSizes) {
  EXPECT_EQ(ring(2).edge_count(), 0u);  // no ring below 3
  EXPECT_EQ(line(1).edge_count(), 0u);
  EXPECT_EQ(star(1).edge_count(), 0u);
}

// ---------- Waxman ----------

class WaxmanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WaxmanTest, ConnectedWithMinDegree) {
  const std::size_t min_degree = GetParam();
  Rng rng(1000 + min_degree);
  WaxmanOptions opt;
  opt.node_count = 60;
  opt.min_degree = min_degree;
  auto topo = generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok()) << topo.error().to_string();
  const graph::Graph& g = topo.value().graph;
  EXPECT_EQ(g.node_count(), 60u);
  EXPECT_TRUE(connected(g));
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_GE(g.neighbors(u).size(), min_degree) << u;
  }
}

INSTANTIATE_TEST_SUITE_P(MinDegrees, WaxmanTest,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(WaxmanGenTest, PlacementsInPlane) {
  Rng rng(2);
  WaxmanOptions opt;
  opt.node_count = 40;
  opt.plane_size = 500.0;
  auto topo = generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().placements.size(), 40u);
  for (const auto& p : topo.value().placements) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 500.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 500.0);
  }
}

TEST(WaxmanGenTest, DeterministicGivenSeed) {
  WaxmanOptions opt;
  opt.node_count = 30;
  Rng r1(7), r2(7);
  auto a = generate_waxman(opt, r1);
  auto b = generate_waxman(opt, r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().graph.edges(), b.value().graph.edges());
}

TEST(WaxmanGenTest, LocalityBias) {
  // Waxman prefers short links: mean edge length must be well below the
  // mean random-pair distance (~0.52 * plane for uniform placement).
  Rng rng(3);
  WaxmanOptions opt;
  opt.node_count = 150;
  opt.min_degree = 2;
  opt.plane_size = 1000.0;
  auto topo = generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok());
  double total = 0.0;
  const auto edges = topo.value().graph.edges();
  for (const auto& [u, v] : edges) {
    total += geometry::distance(topo.value().placements[u],
                                topo.value().placements[v]);
  }
  EXPECT_LT(total / static_cast<double>(edges.size()), 0.45 * 1000.0);
}

TEST(WaxmanGenTest, RejectsBadOptions) {
  Rng rng(4);
  WaxmanOptions opt;
  opt.node_count = 0;
  EXPECT_FALSE(generate_waxman(opt, rng).ok());
  opt.node_count = 5;
  opt.min_degree = 5;
  EXPECT_FALSE(generate_waxman(opt, rng).ok());
}

TEST(WaxmanGenTest, SingleNode) {
  Rng rng(5);
  WaxmanOptions opt;
  opt.node_count = 1;
  opt.min_degree = 0;
  auto topo = generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().graph.node_count(), 1u);
}

// ---------- EdgeNetwork ----------

TEST(EdgeNetworkTest, UniformAttachment) {
  const EdgeNetwork net = uniform_edge_network(ring(5), 10);
  EXPECT_EQ(net.switch_count(), 5u);
  EXPECT_EQ(net.server_count(), 50u);
  for (SwitchId sw = 0; sw < 5; ++sw) {
    const auto& servers = net.servers_at(sw);
    ASSERT_EQ(servers.size(), 10u);
    for (std::size_t k = 0; k < servers.size(); ++k) {
      const EdgeServer& s = net.server(servers[k]);
      EXPECT_EQ(s.attached_to, sw);
      EXPECT_EQ(s.local_index, k);  // serial numbers 0..s-1
      EXPECT_EQ(s.capacity, 0u);
    }
  }
}

TEST(EdgeNetworkTest, ServerIdsDense) {
  const EdgeNetwork net = uniform_edge_network(line(3), 2);
  for (ServerId id = 0; id < net.server_count(); ++id) {
    EXPECT_EQ(net.server(id).id, id);
    EXPECT_EQ(net.server(id).name, "h" + std::to_string(id));
  }
}

TEST(EdgeNetworkTest, AttachValidation) {
  EdgeNetwork net(ring(3));
  EXPECT_FALSE(net.attach_server(99).ok());
  auto id = net.attach_server(1, 500);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(net.server(id.value()).capacity, 500u);
  EXPECT_EQ(net.servers_at(1).size(), 1u);
  EXPECT_TRUE(net.servers_at(0).empty());
}

TEST(EdgeNetworkTest, HeterogeneousAttachment) {
  Rng rng(6);
  HeterogeneousOptions opt;
  opt.min_servers_per_switch = 2;
  opt.max_servers_per_switch = 6;
  opt.min_capacity = 10;
  opt.max_capacity = 20;
  const EdgeNetwork net = heterogeneous_edge_network(grid(3, 3), opt, rng);
  EXPECT_EQ(net.switch_count(), 9u);
  std::set<std::size_t> counts;
  for (SwitchId sw = 0; sw < 9; ++sw) {
    const std::size_t c = net.servers_at(sw).size();
    EXPECT_GE(c, 2u);
    EXPECT_LE(c, 6u);
    counts.insert(c);
  }
  EXPECT_GT(counts.size(), 1u);  // genuinely heterogeneous
  for (const EdgeServer& s : net.all_servers()) {
    EXPECT_GE(s.capacity, 10u);
    EXPECT_LE(s.capacity, 20u);
  }
}

TEST(EdgeNetworkTest, AddSwitchAndDetach) {
  EdgeNetwork net = uniform_edge_network(ring(3), 1);
  const SwitchId sw = net.add_switch();
  EXPECT_EQ(sw, 3u);
  EXPECT_EQ(net.switch_count(), 4u);
  EXPECT_TRUE(net.servers_at(sw).empty());
  ASSERT_TRUE(net.attach_server(sw).ok());
  EXPECT_EQ(net.servers_at(sw).size(), 1u);
  net.detach_servers(sw);
  EXPECT_TRUE(net.servers_at(sw).empty());
}

}  // namespace
}  // namespace gred::topology
