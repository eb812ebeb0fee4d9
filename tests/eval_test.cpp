// The evaluation harness library: scenario factory and measurement
// procedures, including the headline cross-protocol relationships the
// benches rely on.
#include <gtest/gtest.h>

#include "eval/experiments.hpp"
#include "eval/scenario.hpp"

namespace gred::eval {
namespace {

ScenarioOptions small_scenario() {
  ScenarioOptions opt;
  opt.switches = 30;
  opt.servers_per_switch = 5;
  opt.topology_seed = 99;
  opt.cvt_iterations = 30;
  return opt;
}

TEST(ScenarioTest, BuildsAllThreeProtocols) {
  const ScenarioOptions opt = small_scenario();
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().switch_count(), 30u);
  EXPECT_EQ(net.value().server_count(), 150u);

  auto gred = build_gred(net.value(), opt);
  auto nocvt = build_gred_nocvt(net.value(), opt);
  auto ring = build_chord(net.value());
  ASSERT_TRUE(gred.ok());
  ASSERT_TRUE(nocvt.ok());
  ASSERT_TRUE(ring.ok());
  EXPECT_GT(gred.value().controller().options().cvt_iterations, 0u);
  EXPECT_EQ(nocvt.value().controller().options().cvt_iterations, 0u);
  EXPECT_EQ(ring.value().ring_size(), 150u);
}

TEST(ScenarioTest, DeterministicForSameSeed) {
  const ScenarioOptions opt = small_scenario();
  auto a = build_network(opt);
  auto b = build_network(opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().switches().edges(), b.value().switches().edges());
}

TEST(ScenarioTest, LatencyWeightsProduceNonUnitWeights) {
  ScenarioOptions opt = small_scenario();
  opt.latency_weights = true;
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  bool non_unit = false;
  for (const auto& [u, v] : net.value().switches().edges()) {
    const double w = net.value().switches().edge_weight(u, v).value();
    if (w != 1.0) non_unit = true;
    EXPECT_GT(w, 0.0);
  }
  EXPECT_TRUE(non_unit);
}

TEST(ExperimentsTest, WorkloadIdsDeterministicAndDistinct) {
  const auto a = workload_ids(100, 7);
  const auto b = workload_ids(100, 7);
  EXPECT_EQ(a, b);
  std::set<std::string> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), 100u);
  EXPECT_NE(workload_ids(1, 7)[0], workload_ids(1, 8)[0]);
}

TEST(ExperimentsTest, StretchMeasurementsSane) {
  const ScenarioOptions opt = small_scenario();
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  auto gred = build_gred(net.value(), opt);
  ASSERT_TRUE(gred.ok());

  StretchOptions sopt;
  sopt.items = 80;
  const StretchResult r = measure_gred_stretch(gred.value(), sopt);
  EXPECT_EQ(r.hop_stretch.count, 80u);
  EXPECT_GE(r.hop_stretch.min, 1.0 - 1e-9);
  EXPECT_LT(r.hop_stretch.mean, 3.0);
  // Unit-weight links: both views identical.
  EXPECT_NEAR(r.hop_stretch.mean, r.latency_stretch.mean, 1e-9);
}

TEST(ExperimentsTest, HeadlineOrderingGredBeatsChord) {
  const ScenarioOptions opt = small_scenario();
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  auto gred = build_gred(net.value(), opt);
  auto ring = build_chord(net.value());
  ASSERT_TRUE(gred.ok());
  ASSERT_TRUE(ring.ok());
  const auto apsp =
      graph::all_pairs_shortest_paths(net.value().switches());

  StretchOptions sopt;
  sopt.items = 120;
  const StretchResult g = measure_gred_stretch(gred.value(), sopt);
  const StretchResult c =
      measure_chord_stretch(ring.value(), net.value(), apsp, sopt);
  EXPECT_LT(g.hop_stretch.mean * 1.5, c.hop_stretch.mean);
}

TEST(ExperimentsTest, BalanceMeasurementsConserveItems) {
  const ScenarioOptions opt = small_scenario();
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  auto gred = build_gred(net.value(), opt);
  auto ring = build_chord(net.value());
  ASSERT_TRUE(gred.ok());
  ASSERT_TRUE(ring.ok());

  const auto ids = workload_ids(20000, 3);
  const BalanceResult g = measure_gred_balance(gred.value(), ids);
  const BalanceResult c =
      measure_chord_balance(ring.value(), net.value(), ids);
  auto total = [](const std::vector<std::size_t>& loads) {
    std::size_t t = 0;
    for (std::size_t l : loads) t += l;
    return t;
  };
  EXPECT_EQ(total(g.loads), ids.size());
  EXPECT_EQ(total(c.loads), ids.size());
  // And the paper's ordering.
  EXPECT_LT(g.report.max_over_avg, c.report.max_over_avg);
}

TEST(ExperimentsTest, TableEntriesMeasurement) {
  const ScenarioOptions opt = small_scenario();
  auto net = build_network(opt);
  ASSERT_TRUE(net.ok());
  auto gred = build_gred(net.value(), opt);
  ASSERT_TRUE(gred.ok());
  const Summary s = measure_table_entries(gred.value().network());
  EXPECT_EQ(s.count, 30u);
  EXPECT_GT(s.mean, 2.0);
  EXPECT_LT(s.mean, 40.0);

  auto ring = build_chord(net.value());
  ASSERT_TRUE(ring.ok());
  const double fingers = mean_chord_fingers(ring.value(), net.value());
  EXPECT_GT(fingers, 3.0);
  EXPECT_LT(fingers, 20.0);
}

}  // namespace
}  // namespace gred::eval
