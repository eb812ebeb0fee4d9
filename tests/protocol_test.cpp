// GredProtocol / GredSystem: end-to-end placement and retrieval,
// stretch reporting, replication, and the metrics helpers.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/system.hpp"
#include "topology/presets.hpp"

namespace gred::core {
namespace {

using topology::SwitchId;

GredSystem make_system(graph::Graph g, std::size_t per_switch,
                       VirtualSpaceOptions opt = {}) {
  auto sys = GredSystem::create(
      topology::uniform_edge_network(std::move(g), per_switch), opt);
  EXPECT_TRUE(sys.ok());
  return std::move(sys).value();
}

// ---------- metrics ----------

TEST(MetricsTest, RoutingStretch) {
  EXPECT_DOUBLE_EQ(routing_stretch(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(routing_stretch(3, 0), 3.0);
  EXPECT_DOUBLE_EQ(routing_stretch(4, 2), 2.0);
  EXPECT_DOUBLE_EQ(routing_stretch(2, 2), 1.0);
}

TEST(MetricsTest, StretchCollector) {
  StretchCollector c;
  c.add(4, 2);
  c.add(2, 2);
  c.add_stretch(3.0);
  EXPECT_EQ(c.count(), 3u);
  EXPECT_DOUBLE_EQ(c.summary().mean, 2.0);
}

TEST(MetricsTest, LoadBalanceReport) {
  const LoadBalanceReport r = load_balance({10, 10, 10, 30});
  EXPECT_DOUBLE_EQ(r.max_over_avg, 2.0);
  EXPECT_EQ(r.max_load, 30u);
  EXPECT_DOUBLE_EQ(r.avg_load, 15.0);
  EXPECT_LT(r.jain, 1.0);
  EXPECT_GT(r.cov, 0.0);
  const LoadBalanceReport empty = load_balance({});
  EXPECT_DOUBLE_EQ(empty.max_over_avg, 0.0);
}

// ---------- place / retrieve round trips ----------

TEST(ProtocolTest, PlaceThenRetrieveRoundTrip) {
  GredSystem sys = make_system(topology::testbed6(), 2);
  Rng rng(71);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "rt-" + std::to_string(i);
    const std::string payload = "payload-" + std::to_string(i);
    const SwitchId in1 = rng.next_below(6);
    const SwitchId in2 = rng.next_below(6);
    auto placed = sys.place(id, payload, in1);
    ASSERT_TRUE(placed.ok()) << placed.error().to_string();
    auto got = sys.retrieve(id, in2);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().route.found);
    EXPECT_EQ(got.value().route.payload, payload);
    // Placement and retrieval from any ingress land on the same server.
    EXPECT_EQ(got.value().route.responder,
              placed.value().route.delivered_to[0]);
  }
}

TEST(ProtocolTest, RetrievalRouteIndependentOfIngress) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  ASSERT_TRUE(sys.place("fixed", "v", 0).ok());
  std::set<topology::ServerId> responders;
  for (SwitchId in = 0; in < 16; ++in) {
    auto r = sys.retrieve("fixed", in);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found);
    responders.insert(r.value().route.responder);
  }
  EXPECT_EQ(responders.size(), 1u);
}

TEST(ProtocolTest, StretchReportedSanely) {
  GredSystem sys = make_system(topology::grid(5, 5), 2);
  Rng rng(72);
  for (int i = 0; i < 100; ++i) {
    auto r = sys.place("s-" + std::to_string(i), "v", rng.next_below(25));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().stretch, 1.0 - 1e-9);
    EXPECT_GE(r.value().selected_hops, r.value().shortest_hops);
    EXPECT_EQ(r.value().route.switch_path.front(), r.value().ingress);
  }
}

TEST(ProtocolTest, MissingDataReportsNotFound) {
  GredSystem sys = make_system(topology::ring(4), 1);
  auto r = sys.retrieve("never-placed", 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().route.found);
}

TEST(ProtocolTest, OverwriteKeepsSingleCopy) {
  GredSystem sys = make_system(topology::ring(4), 1);
  ASSERT_TRUE(sys.place("dup", "v1", 0).ok());
  ASSERT_TRUE(sys.place("dup", "v2", 1).ok());
  auto r = sys.retrieve("dup", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().route.payload, "v2");
  std::size_t total = 0;
  for (std::size_t l : sys.network().server_loads()) total += l;
  EXPECT_EQ(total, 1u);
}

TEST(ProtocolTest, EveryIngressDeliversToSameServer) {
  // One-overlay-hop determinism: the terminal server depends only on
  // the data id, never on where the request enters.
  GredSystem sys = make_system(topology::grid(4, 4), 3);
  for (int i = 0; i < 20; ++i) {
    const std::string id = "det-" + std::to_string(i);
    std::set<topology::ServerId> dests;
    for (SwitchId in = 0; in < 16; ++in) {
      auto r = sys.place(id, "v", in);
      ASSERT_TRUE(r.ok());
      dests.insert(r.value().route.delivered_to[0]);
    }
    EXPECT_EQ(dests.size(), 1u) << id;
  }
}

// ---------- removal ----------

TEST(ProtocolTest, RemoveErasesData) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  ASSERT_TRUE(sys.place("victim", "v", 0).ok());
  auto removed = sys.remove("victim", 5);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.value().route.found);
  auto r = sys.retrieve("victim", 10);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().route.found);
  std::size_t total = 0;
  for (std::size_t l : sys.network().server_loads()) total += l;
  EXPECT_EQ(total, 0u);
}

TEST(ProtocolTest, RemoveMissingReportsNotFound) {
  GredSystem sys = make_system(topology::ring(4), 1);
  auto r = sys.remove("never-there", 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().route.found);
}

TEST(ProtocolTest, RemoveIsIdempotent) {
  GredSystem sys = make_system(topology::ring(4), 1);
  ASSERT_TRUE(sys.place("once", "v", 0).ok());
  ASSERT_TRUE(sys.remove("once", 1).ok());
  auto again = sys.remove("once", 2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().route.found);
}

TEST(ProtocolTest, RemoveWorksThroughRangeExtension) {
  GredSystem sys = make_system(topology::ring(4), 1, {});
  // Find an id owned by server 0, extend, place (goes to delegate),
  // then remove — the dual-query must erase it at the delegate.
  std::string owned;
  for (int i = 0; owned.empty() && i < 2000; ++i) {
    const std::string id = "rmext-" + std::to_string(i);
    auto p = sys.controller().expected_placement(sys.network(),
                                                 crypto::DataKey(id));
    ASSERT_TRUE(p.ok());
    if (p.value().server == 0) owned = id;
  }
  ASSERT_FALSE(owned.empty());
  ASSERT_TRUE(sys.extend_range(0).ok());
  ASSERT_TRUE(sys.place(owned, "v", 2).ok());
  EXPECT_EQ(sys.network().server(0).item_count(), 0u);
  auto removed = sys.remove(owned, 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.value().route.found);
  auto r = sys.retrieve(owned, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().route.found);
}

// ---------- replication ----------

TEST(ReplicationTest, PlacesKCopies) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  auto reports = sys.place_replicated("video", "data", 3, 0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value().size(), 3u);
  std::size_t total = 0;
  for (std::size_t l : sys.network().server_loads()) total += l;
  EXPECT_EQ(total, 3u);
}

TEST(ReplicationTest, ZeroCopiesRejected) {
  GredSystem sys = make_system(topology::ring(4), 1);
  EXPECT_FALSE(sys.place_replicated("x", "v", 0, 0).ok());
  EXPECT_FALSE(sys.retrieve_nearest_replica("x", 0, 0).ok());
}

TEST(ReplicationTest, NearestReplicaFoundFromEveryIngress) {
  GredSystem sys = make_system(topology::grid(5, 5), 2);
  ASSERT_TRUE(sys.place_replicated("popular", "content", 4, 0).ok());
  for (SwitchId in = 0; in < 25; ++in) {
    auto r = sys.retrieve_nearest_replica("popular", 4, in);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r.value().route.found);
    EXPECT_EQ(r.value().route.payload, "content");
  }
}

// A bad ingress is a classified routing error, as it is for retrieve:
// the nearest-copy choice must not read the switch before checking it.
TEST(ReplicationTest, NearestReplicaRejectsOutOfRangeIngress) {
  GredSystem sys = make_system(topology::grid(5, 5), 2);
  ASSERT_TRUE(sys.place_replicated("x", "v", 2, 0).ok());
  const SwitchId bad = 1000000;
  auto single = sys.retrieve("x#0", bad);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code, ErrorCode::kOutOfRange);
  auto nearest = sys.retrieve_nearest_replica("x", 2, bad);
  ASSERT_FALSE(nearest.ok());
  EXPECT_EQ(nearest.error().code, ErrorCode::kOutOfRange);
  EXPECT_EQ(nearest.error().to_string(), single.error().to_string());
}

TEST(ReplicationTest, MoreReplicasNeverHurtMeanDistance) {
  // With more copies, the mean retrieval hop count must not grow.
  GredSystem sys1 = make_system(topology::grid(6, 6), 2);
  GredSystem sys4 = make_system(topology::grid(6, 6), 2);
  Rng rng(73);
  double hops1 = 0, hops4 = 0;
  const int items = 30;
  for (int i = 0; i < items; ++i) {
    const std::string id = "repl-" + std::to_string(i);
    ASSERT_TRUE(sys1.place_replicated(id, "v", 1, 0).ok());
    ASSERT_TRUE(sys4.place_replicated(id, "v", 4, 0).ok());
  }
  for (int i = 0; i < items; ++i) {
    const std::string id = "repl-" + std::to_string(i);
    const SwitchId in = rng.next_below(36);
    auto r1 = sys1.retrieve_nearest_replica(id, 1, in);
    auto r4 = sys4.retrieve_nearest_replica(id, 4, in);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    hops1 += static_cast<double>(r1.value().selected_hops);
    hops4 += static_cast<double>(r4.value().selected_hops);
  }
  EXPECT_LE(hops4, hops1);
}

// ---------- system facade ----------

TEST(SystemTest, CreateFailsOnEmptyNetwork) {
  EXPECT_FALSE(
      GredSystem::create(topology::EdgeNetwork(topology::ring(3))).ok());
}

TEST(SystemTest, MoveSemantics) {
  GredSystem a = make_system(topology::ring(4), 1);
  ASSERT_TRUE(a.place("m", "v", 0).ok());
  GredSystem b = std::move(a);
  auto r = b.retrieve("m", 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().route.found);
}

TEST(SystemTest, ManagementPassThrough) {
  GredSystem sys = make_system(topology::ring(4), 1);
  EXPECT_TRUE(sys.extend_range(0).ok());
  EXPECT_TRUE(sys.retract_range(0).ok());
  auto sw = sys.add_switch({0, 1}, 1);
  ASSERT_TRUE(sw.ok());
  EXPECT_TRUE(sys.remove_switch(sw.value()).ok());
}

}  // namespace
}  // namespace gred::core
