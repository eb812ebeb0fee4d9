// RetrievalDelayExperiment and the latency-aware routing metrics.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/delay_experiment.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::core {
namespace {

GredSystem testbed_system() {
  auto sys = GredSystem::create(
      topology::uniform_edge_network(topology::testbed6(), 2), {});
  EXPECT_TRUE(sys.ok());
  return std::move(sys).value();
}

std::vector<std::string> preload(GredSystem& sys, std::size_t count) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string id = "delay-" + std::to_string(i);
    EXPECT_TRUE(sys.place(id, "v", i % 6).ok());
    ids.push_back(id);
  }
  return ids;
}

TEST(DelayExperimentTest, EmptyIdsRejected) {
  GredSystem sys = testbed_system();
  RetrievalDelayExperiment exp(sys, {});
  Rng rng(1);
  EXPECT_FALSE(exp.run_uniform({}, 10, 1.0, rng).ok());
}

TEST(DelayExperimentTest, AllRequestsComplete) {
  GredSystem sys = testbed_system();
  const auto ids = preload(sys, 50);
  RetrievalDelayExperiment exp(sys, {});
  Rng rng(2);
  auto r = exp.run_uniform(ids, 200, 0.1, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().requests, 200u);
  EXPECT_EQ(r.value().not_found, 0u);
  EXPECT_EQ(r.value().delay.count, 200u);
  EXPECT_GT(r.value().delay.mean, 0.0);
  EXPECT_GT(r.value().makespan_ms, 0.0);
}

TEST(DelayExperimentTest, MissingDataCountedNotFound) {
  GredSystem sys = testbed_system();
  RetrievalDelayExperiment exp(sys, {});
  std::vector<RetrievalRequest> requests;
  requests.push_back({"ghost-item", 0, 0.0});
  auto r = exp.run(requests);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().not_found, 1u);
  EXPECT_EQ(r.value().delay.count, 0u);
}

TEST(DelayExperimentTest, DelayAtLeastServiceTime) {
  GredSystem sys = testbed_system();
  const auto ids = preload(sys, 10);
  DelayModelOptions model;
  model.service_time_ms = 1.0;
  model.link_latency_ms = 0.1;
  RetrievalDelayExperiment exp(sys, model);
  Rng rng(3);
  auto r = exp.run_uniform(ids, 50, 10.0, rng);  // no queueing (sparse)
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().delay.min, 1.0);
}

TEST(DelayExperimentTest, QueueingRaisesDelayUnderBursts) {
  GredSystem sys = testbed_system();
  const auto ids = preload(sys, 10);
  RetrievalDelayExperiment exp(sys, {});
  Rng r1(4), r2(4);
  auto sparse = exp.run_uniform(ids, 300, /*spacing=*/5.0, r1);
  auto dense = exp.run_uniform(ids, 300, /*spacing=*/0.001, r2);
  ASSERT_TRUE(sparse.ok());
  ASSERT_TRUE(dense.ok());
  EXPECT_GT(dense.value().delay.mean, sparse.value().delay.mean);
}

TEST(DelayExperimentTest, FasterLinksLowerDelay) {
  GredSystem sys = testbed_system();
  const auto ids = preload(sys, 10);
  DelayModelOptions slow;
  slow.link_latency_ms = 1.0;
  DelayModelOptions fast;
  fast.link_latency_ms = 0.01;
  Rng r1(5), r2(5);
  auto s = RetrievalDelayExperiment(sys, slow).run_uniform(ids, 100, 5.0, r1);
  auto f = RetrievalDelayExperiment(sys, fast).run_uniform(ids, 100, 5.0, r2);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(f.ok());
  EXPECT_GT(s.value().delay.mean, f.value().delay.mean);
}

TEST(DelayExperimentTest, SimultaneousArrivalsQueueByInjectionThenOrder) {
  // Three retrievals of one item reach its server at 0.05 ms: the first
  // request was injected at 0.05 ms at the home switch, the other two
  // at 0 one hop away (every switch of complete(3) is one hop from the
  // others). The server takes the earlier injections first, in request
  // order. With 0.05 ms links and 0.2 ms service the delays are
  //   0.05 + 0.2 + 0.05 = 0.30, then 0.25 + 0.2 + 0.05 = 0.50,
  //   then 0.45 + 0.2 - 0.05 = 0.60 ms (done at 0.65 ms).
  auto built = GredSystem::create(
      topology::uniform_edge_network(topology::complete(3), 1), {});
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();
  ASSERT_TRUE(sys.place("tie", "v", 0).ok());
  const auto home =
      sys.controller().expected_placement(sys.network(), crypto::DataKey("tie"));
  ASSERT_TRUE(home.ok());
  const topology::SwitchId h = home.value().sw;
  DelayModelOptions model;
  model.link_latency_ms = 0.05;
  model.service_time_ms = 0.2;
  RetrievalDelayExperiment exp(sys, model);
  auto r = exp.run({{"tie", h, 0.05},
                    {"tie", static_cast<topology::SwitchId>((h + 1) % 3), 0.0},
                    {"tie", static_cast<topology::SwitchId>((h + 2) % 3), 0.0}});
  ASSERT_TRUE(r.ok());
  const Summary& delay = r.value().delay;
  ASSERT_EQ(delay.count, 3u);
  EXPECT_NEAR(delay.min, 0.30, 1e-12);
  EXPECT_NEAR(delay.p50, 0.50, 1e-12);
  EXPECT_NEAR(delay.max, 0.60, 1e-12);
  EXPECT_NEAR(r.value().makespan_ms, 0.65, 1e-12);
}

// ---------- latency-aware metrics ----------

topology::EdgeNetwork latency_waxman(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions wopt;
  wopt.node_count = n;
  wopt.min_degree = 3;
  wopt.latency_weights = true;
  auto topo = topology::generate_waxman(wopt, rng);
  EXPECT_TRUE(topo.ok());
  return topology::uniform_edge_network(std::move(topo).value().graph, 4);
}

TEST(LatencyMetricsTest, UnitWeightsGiveEqualViews) {
  GredSystem sys = testbed_system();
  auto r = sys.place("metric-check", "v", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().selected_cost,
                   static_cast<double>(r.value().selected_hops));
  EXPECT_DOUBLE_EQ(r.value().shortest_cost,
                   static_cast<double>(r.value().shortest_hops));
  EXPECT_NEAR(r.value().latency_stretch, r.value().stretch, 1e-12);
}

TEST(LatencyMetricsTest, WeightedNetworkCostsSane) {
  auto built = GredSystem::create(latency_waxman(40, 21), {});
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    auto r = sys.place("w-" + std::to_string(i), "", rng.next_below(40));
    ASSERT_TRUE(r.ok());
    // Selected cost can never beat the weighted shortest path.
    EXPECT_GE(r.value().selected_cost, r.value().shortest_cost - 1e-9);
    EXPECT_GE(r.value().latency_stretch, 1.0 - 1e-9);
  }
}

TEST(LatencyMetricsTest, WeightedEmbeddingOptionWorksEndToEnd) {
  VirtualSpaceOptions opt;
  opt.weighted_embedding = true;
  auto built = GredSystem::create(latency_waxman(40, 23), opt);
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();
  Rng rng(24);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "we-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v", rng.next_below(40)).ok());
    auto r = sys.retrieve(id, rng.next_below(40));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found);
  }
}

TEST(LatencyMetricsTest, ApspLatencyMatchesApspOnUnitWeights) {
  GredSystem sys = testbed_system();
  const auto& hops = sys.controller().apsp();
  const auto& lat = sys.controller().apsp_latency();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(hops.dist(i, j), lat.dist(i, j));
    }
  }
}

}  // namespace
}  // namespace gred::core
