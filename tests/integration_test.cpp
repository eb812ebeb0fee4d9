// Whole-system integration: GRED over generated Waxman topologies,
// parameterized across sizes and variants, checking the paper's
// qualitative claims end to end — guaranteed delivery, one-overlay-hop
// determinism, stretch bounds versus Chord, and CVT's load-balance win.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "chord/chord.hpp"
#include "chord/underlay.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/system.hpp"
#include "topology/waxman.hpp"

namespace gred::core {
namespace {

using topology::EdgeNetwork;
using topology::SwitchId;

EdgeNetwork waxman_net(std::size_t switches, std::size_t servers_per_switch,
                       std::uint64_t seed, std::size_t min_degree = 3) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = min_degree;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  return topology::uniform_edge_network(std::move(topo).value().graph,
                                        servers_per_switch);
}

class EndToEndTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(EndToEndTest, PlacementRetrievalAndDelivery) {
  const auto [switches, cvt] = GetParam();
  VirtualSpaceOptions opt;
  opt.cvt_iterations = cvt ? 20 : 0;
  auto built = GredSystem::create(waxman_net(switches, 4, switches), opt);
  ASSERT_TRUE(built.ok()) << built.error().to_string();
  GredSystem sys = std::move(built).value();

  Rng rng(switches * 31 + cvt);
  StretchCollector stretch;
  for (int i = 0; i < 150; ++i) {
    const std::string id = "e2e-" + std::to_string(i);
    const SwitchId in_place = rng.next_below(switches);
    const SwitchId in_get = rng.next_below(switches);

    auto placed = sys.place(id, "v" + std::to_string(i), in_place);
    ASSERT_TRUE(placed.ok()) << placed.error().to_string();
    stretch.add_stretch(placed.value().stretch);

    // The terminal switch must be the controller's ground-truth home.
    const auto expected = sys.controller().expected_placement(
        sys.network(), crypto::DataKey(id));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(placed.value().route.delivered_to[0],
              expected.value().server);

    auto got = sys.retrieve(id, in_get);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().route.found) << id;
    EXPECT_EQ(got.value().route.payload, "v" + std::to_string(i));
  }
  // GRED's stretch stays small (the paper: < 1.5 on average).
  EXPECT_LT(stretch.summary().mean, 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndTest,
    ::testing::Combine(::testing::Values<std::size_t>(10, 25, 50, 80),
                       ::testing::Bool()),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cvt" : "_nocvt");
    });

TEST(ComparisonTest, GredBeatsChordOnStretch) {
  const EdgeNetwork net = waxman_net(60, 10, 4242);
  VirtualSpaceOptions opt;
  opt.cvt_iterations = 30;
  auto built = GredSystem::create(net, opt);
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();

  auto ring = chord::ChordRing::build(net);
  ASSERT_TRUE(ring.ok());
  const auto apsp = graph::all_pairs_shortest_paths(net.switches());

  Rng rng(99);
  StretchCollector gred_stretch, chord_stretch;
  for (int i = 0; i < 150; ++i) {
    const std::string id = "cmp-" + std::to_string(i);
    const SwitchId ingress = rng.next_below(60);
    auto placed = sys.place(id, "v", ingress);
    ASSERT_TRUE(placed.ok());
    gred_stretch.add_stretch(placed.value().stretch);

    const crypto::DataKey key(id);
    const topology::ServerId origin =
        net.servers_at(ingress)[rng.next_below(10)];
    chord_stretch.add_stretch(
        chord::measure_lookup(ring.value(), net, apsp, origin,
                              chord::ChordRing::key_of(key))
            .stretch);
  }
  // The headline claim: GRED's routing cost is far below Chord's.
  EXPECT_LT(gred_stretch.summary().mean * 1.8, chord_stretch.summary().mean);
}

TEST(ComparisonTest, CvtImprovesLoadBalanceOverNoCvtAndChord) {
  const EdgeNetwork net = waxman_net(40, 10, 777);

  VirtualSpaceOptions cvt_opt;
  cvt_opt.cvt_iterations = 50;
  VirtualSpaceOptions nocvt_opt;
  nocvt_opt.cvt_iterations = 0;
  auto sys_cvt = GredSystem::create(net, cvt_opt);
  auto sys_nocvt = GredSystem::create(net, nocvt_opt);
  ASSERT_TRUE(sys_cvt.ok());
  ASSERT_TRUE(sys_nocvt.ok());
  auto ring = chord::ChordRing::build(net);
  ASSERT_TRUE(ring.ok());

  const int items = 40000;
  std::vector<chord::RingId> keys;
  for (int i = 0; i < items; ++i) {
    const std::string id = "bal-" + std::to_string(i);
    ASSERT_TRUE(sys_cvt.value().place(id, "", 0).ok());
    ASSERT_TRUE(sys_nocvt.value().place(id, "", 0).ok());
    keys.push_back(crypto::DataKey(id).prefix64());
  }

  const double cvt_bal =
      load_balance(sys_cvt.value().network().server_loads()).max_over_avg;
  const double nocvt_bal =
      load_balance(sys_nocvt.value().network().server_loads()).max_over_avg;
  const double chord_bal =
      load_balance(chord::chord_key_loads(ring.value(), net, keys))
          .max_over_avg;

  EXPECT_LT(cvt_bal, nocvt_bal);   // Fig. 7(b) / 11(c)
  EXPECT_LT(cvt_bal, chord_bal);   // Fig. 11(a)
  EXPECT_LT(cvt_bal, 3.0);         // paper: < 2.5 for T >= 10
}

TEST(IntegrationTest, TableSizesStayBounded) {
  // Fig. 9(d): forwarding state per switch is small and grows only
  // mildly with network size.
  for (std::size_t n : {20u, 60u, 120u}) {
    auto built = GredSystem::create(waxman_net(n, 10, n * 13));
    ASSERT_TRUE(built.ok());
    const auto counts = built.value().network().table_entry_counts();
    double mean = 0;
    for (std::size_t c : counts) mean += static_cast<double>(c);
    mean /= static_cast<double>(counts.size());
    EXPECT_LT(mean, 40.0) << "n=" << n;
  }
}

TEST(IntegrationTest, HeterogeneousNetworkWorks) {
  Rng rng(31337);
  topology::WaxmanOptions wopt;
  wopt.node_count = 30;
  auto topo = topology::generate_waxman(wopt, rng);
  ASSERT_TRUE(topo.ok());
  topology::HeterogeneousOptions hopt;
  hopt.min_servers_per_switch = 1;
  hopt.max_servers_per_switch = 8;
  const EdgeNetwork net = topology::heterogeneous_edge_network(
      std::move(topo).value().graph, hopt, rng);

  auto built = GredSystem::create(net);
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();
  for (int i = 0; i < 100; ++i) {
    const std::string id = "het-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v", i % 30).ok());
    auto r = sys.retrieve(id, (i * 7) % 30);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found);
  }
}

TEST(IntegrationTest, BenchmarkDeploymentPositionsArePinned) {
  // perfbench's deployment (128-switch Waxman, topology seed 2019,
  // minimum degree 3, 4 servers per switch), brought up as perfbench
  // brings it up. Every placement, route and figure follows from the
  // switch positions, so a set-up change that claims identical output
  // must leave all 128 of them bit-identical: the FNV-1a hash of their
  // bit patterns (x then y, in participant order) is pinned.
#if !defined(__x86_64__)
  GTEST_SKIP() << "positions are pinned on x86-64 only: elsewhere the "
                  "compiler may fuse a*b+c into one FMA (GCC's default "
                  "-ffp-contract=fast on aarch64), which rounds the "
                  "embedding and C-regulation differently";
#endif
  auto built = GredSystem::create(waxman_net(128, 4, 2019));
  ASSERT_TRUE(built.ok());
  const auto& positions = built.value().controller().space().positions();
  ASSERT_EQ(positions.size(), 128u);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      hash = (hash ^ (bits & 0xffu)) * 0x100000001b3ULL;
    }
  };
  for (const geometry::Point2D& p : positions) {
    mix(p.x);
    mix(p.y);
  }
  EXPECT_EQ(hash, 0x78e5ffc3337681e4ULL) << std::hex << "hash 0x" << hash;
}

// Model-based randomized testing: run a random operation sequence
// against GRED and a trivial reference map; every retrieval must agree
// with the model, across churn, overwrites, and range extensions.
class ModelCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCheckTest, RandomOpSequenceMatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  auto built = GredSystem::create(waxman_net(10, 2, seed, 2));
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();

  std::unordered_map<std::string, std::string> model;
  std::vector<topology::SwitchId> added_switches;
  std::size_t extended = topology::kNoServer;

  // Requests enter at live (DT-participating) switches; a removed
  // switch is an inert transit node and rejects injections by design.
  auto random_participant = [&]() {
    const auto& live = sys.controller().space().participants();
    return live[rng.next_below(live.size())];
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 45) {
      // Place (possibly overwriting).
      const std::string id = "mc-" + std::to_string(rng.next_below(120));
      const std::string payload = "p" + std::to_string(step);
      auto r = sys.place(id, payload, random_participant());
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      model[id] = payload;
    } else if (dice < 80) {
      // Retrieve a random id (existing or not) and compare to model.
      const std::string id = "mc-" + std::to_string(rng.next_below(140));
      auto r = sys.retrieve(id, random_participant());
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      const auto it = model.find(id);
      if (it == model.end()) {
        EXPECT_FALSE(r.value().route.found) << id;
      } else {
        ASSERT_TRUE(r.value().route.found) << id << " step " << step;
        EXPECT_EQ(r.value().route.payload, it->second);
      }
    } else if (dice < 85) {
      // Remove a random id and mirror it in the model.
      const std::string id = "mc-" + std::to_string(rng.next_below(140));
      auto r = sys.remove(id, random_participant());
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      EXPECT_EQ(r.value().route.found, model.erase(id) > 0) << id;
    } else if (dice < 90 && added_switches.size() < 3) {
      // Join a new switch linked to two random live ones.
      const topology::SwitchId a = random_participant();
      const topology::SwitchId b = random_participant();
      auto sw = sys.add_switch(a == b ? std::vector<topology::SwitchId>{a}
                                      : std::vector<topology::SwitchId>{a, b},
                               1);
      if (sw.ok()) added_switches.push_back(sw.value());
    } else if (dice < 94 && !added_switches.empty()) {
      // Leave: remove one of the switches we added.
      const topology::SwitchId sw = added_switches.back();
      if (sys.remove_switch(sw).ok()) added_switches.pop_back();
    } else if (dice < 97 && extended == topology::kNoServer) {
      const topology::ServerId target =
          rng.next_below(sys.network().server_count());
      if (sys.extend_range(target).ok()) extended = target;
    } else if (extended != topology::kNoServer) {
      // Dynamics wipe rewrites on rebuild; tolerate kNotFound.
      (void)sys.retract_range(extended);
      extended = topology::kNoServer;
    }
  }

  // Final sweep: every modeled item retrievable with the right payload.
  for (const auto& [id, payload] : model) {
    auto r = sys.retrieve(id, random_participant());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().route.found) << id;
    EXPECT_EQ(r.value().route.payload, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

TEST(IntegrationTest, ChurnUnderLoad) {
  // Interleave joins/leaves with operations; nothing may be lost.
  auto built = GredSystem::create(waxman_net(12, 2, 5150, 2));
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();

  std::vector<std::string> ids;
  for (int i = 0; i < 60; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v" + std::to_string(i), i % 12).ok());
    ids.push_back(id);
  }
  auto sw = sys.add_switch({0, 1, 2}, 3);
  ASSERT_TRUE(sw.ok());
  for (int i = 60; i < 90; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v" + std::to_string(i), i % 13).ok());
    ids.push_back(id);
  }
  ASSERT_TRUE(sys.remove_switch(sw.value()).ok());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto r = sys.retrieve(ids[i], i % 12);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << ids[i];
    EXPECT_EQ(r.value().route.payload, "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace gred::core
