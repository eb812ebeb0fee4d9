// Snapshot capture / serialize / parse / restore round trips.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/snapshot.hpp"
#include "core/system.hpp"
#include "sden/hot_key_cache.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::core {
namespace {

sden::SdenNetwork fresh_net(std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions wopt;
  wopt.node_count = 25;
  wopt.min_degree = 3;
  auto topo = topology::generate_waxman(wopt, rng);
  EXPECT_TRUE(topo.ok());
  return sden::SdenNetwork(topology::uniform_edge_network(
      std::move(topo).value().graph, 3));
}

TEST(SnapshotTest, CaptureRequiresInitialized) {
  Controller ctrl;
  const sden::SdenNetwork net = fresh_net(1);
  EXPECT_FALSE(capture_snapshot(ctrl, net).ok());
}

TEST(SnapshotTest, TextRoundTripIsExact) {
  sden::SdenNetwork net = fresh_net(1);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  auto snap = capture_snapshot(ctrl, net);
  ASSERT_TRUE(snap.ok());

  const std::string text = serialize_snapshot(snap.value());
  auto parsed = parse_snapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().participants, snap.value().participants);
  // %.17g round-trips doubles exactly.
  EXPECT_EQ(parsed.value().positions, snap.value().positions);
}

TEST(SnapshotTest, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_snapshot("").ok());
  EXPECT_FALSE(parse_snapshot("not a snapshot\n3\n").ok());
  EXPECT_FALSE(parse_snapshot("gred-snapshot v1\n2\n0 0.5 0.5\n").ok());
  EXPECT_FALSE(parse_snapshot("gred-snapshot v1\nxyz\n").ok());
}

TEST(SnapshotTest, RestoreReproducesPlacementExactly) {
  // Controller A initializes normally; controller B restores A's
  // snapshot on an identical network. Every placement decision must
  // agree, even though B never ran MDS/CVT.
  sden::SdenNetwork net_a = fresh_net(2);
  sden::SdenNetwork net_b = fresh_net(2);
  Controller a;
  ASSERT_TRUE(a.initialize(net_a).ok());
  auto snap = capture_snapshot(a, net_a);
  ASSERT_TRUE(snap.ok());

  Controller b;
  ASSERT_TRUE(
      restore_snapshot(b, net_b, snap.value()).ok());
  EXPECT_TRUE(b.initialized());

  GredProtocol proto_a(net_a, a);
  GredProtocol proto_b(net_b, b);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "snap-" + std::to_string(i);
    const topology::SwitchId ingress = rng.next_below(25);
    auto ra = proto_a.place(id, "v", ingress);
    auto rb = proto_b.place(id, "v", ingress);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra.value().route.delivered_to, rb.value().route.delivered_to);
    EXPECT_EQ(ra.value().route.switch_path, rb.value().route.switch_path);
  }
}

TEST(SnapshotTest, RestoreRejectsMismatchedNetwork) {
  sden::SdenNetwork net = fresh_net(4);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  auto snap = capture_snapshot(ctrl, net);
  ASSERT_TRUE(snap.ok());

  // A different network (different participant set) must be refused.
  sden::SdenNetwork other(
      topology::uniform_edge_network(topology::ring(5), 1));
  Controller fresh;
  EXPECT_FALSE(restore_snapshot(fresh, other, snap.value()).ok());
}

TEST(SnapshotTest, RestoreRejectsBadPositions) {
  sden::SdenNetwork net(
      topology::uniform_edge_network(topology::ring(3), 1));
  Controller ctrl;
  Snapshot bad;
  bad.participants = {0, 1, 2};
  bad.positions = {{0.1, 0.1}, {0.1, 0.1}, {0.5, 0.5}};  // duplicate
  EXPECT_FALSE(restore_snapshot(ctrl, net, bad).ok());
  bad.positions = {{0.1, 0.1}, {2.0, 0.1}, {0.5, 0.5}};  // out of range
  EXPECT_FALSE(restore_snapshot(ctrl, net, bad).ok());
}

TEST(SnapshotTest, RestoredControllerSupportsDynamics) {
  sden::SdenNetwork net_a = fresh_net(5);
  sden::SdenNetwork net_b = fresh_net(5);
  Controller a;
  ASSERT_TRUE(a.initialize(net_a).ok());
  auto snap = capture_snapshot(a, net_a);
  ASSERT_TRUE(snap.ok());
  Controller b;
  ASSERT_TRUE(restore_snapshot(b, net_b, snap.value()).ok());

  GredProtocol proto(net_b, b);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(proto.place("d-" + std::to_string(i), "v", i % 25).ok());
  }
  auto sw = b.add_switch(net_b, {0, 1}, 2);
  ASSERT_TRUE(sw.ok()) << sw.error().to_string();
  for (int i = 0; i < 50; ++i) {
    auto r = proto.retrieve("d-" + std::to_string(i), i % 25);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found);
  }
}

TEST(SnapshotTest, RewritesRoundTripAndRestoreInstallsThem) {
  // A network with an active range extension: the snapshot must carry
  // the rewrite (pre-fix it was silently dropped), serialize/parse must
  // reach a fixed point, and a restore on an identical fresh network
  // must reinstall the delegation so new stores land on the delegate.
  sden::SdenNetwork net_a = fresh_net(7);
  sden::SdenNetwork net_b = fresh_net(7);
  Controller a;
  ASSERT_TRUE(a.initialize(net_a).ok());
  ASSERT_TRUE(a.extend_range(net_a, 0).ok());
  const topology::SwitchId home_sw = net_a.server(0).info().attached_to;
  const auto installed = net_a.switch_at(home_sw).table().match_rewrite(0);
  ASSERT_TRUE(installed.has_value());

  auto snap = capture_snapshot(a, net_a);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap.value().rewrites.size(), 1u);
  EXPECT_EQ(snap.value().rewrites[0].first, home_sw);
  EXPECT_EQ(snap.value().rewrites[0].second.replacement,
            installed->replacement);

  const std::string text = serialize_snapshot(snap.value());
  EXPECT_NE(text.find("rewrites 1"), std::string::npos);
  auto parsed = parse_snapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(serialize_snapshot(parsed.value()), text);
  ASSERT_EQ(parsed.value().rewrites.size(), 1u);

  Controller b;
  ASSERT_TRUE(restore_snapshot(b, net_b, parsed.value()).ok());
  const auto restored = net_b.switch_at(home_sw).table().match_rewrite(0);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->replacement, installed->replacement);
  EXPECT_EQ(restored->via_switch, installed->via_switch);

  // A store owned by server 0 is delivered to the delegate.
  GredProtocol proto(net_b, b);
  bool exercised = false;
  for (int i = 0; i < 3000 && !exercised; ++i) {
    const std::string id = "rw-" + std::to_string(i);
    const auto p = b.expected_placement(net_b, crypto::DataKey(id));
    ASSERT_TRUE(p.ok());
    if (p.value().server != 0) continue;
    auto r = proto.place(id, "v", home_sw);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().route.delivered_to.size(), 1u);
    EXPECT_EQ(r.value().route.delivered_to.front(), installed->replacement);
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no probe id hashed to server 0";
}

TEST(SnapshotTest, RestoreRejectsInvalidRewrites) {
  sden::SdenNetwork net(
      topology::uniform_edge_network(topology::ring(3), 1));
  Controller seed_ctrl;
  sden::SdenNetwork seed_net(
      topology::uniform_edge_network(topology::ring(3), 1));
  ASSERT_TRUE(seed_ctrl.initialize(seed_net).ok());
  auto snap = capture_snapshot(seed_ctrl, seed_net);
  ASSERT_TRUE(snap.ok());

  // Unknown server id.
  Snapshot bad = snap.value();
  sden::RewriteEntry rw;
  rw.original = 99;
  rw.replacement = 1;
  rw.via_switch = 1;
  bad.rewrites = {{0, rw}};
  Controller c1;
  EXPECT_FALSE(restore_snapshot(c1, net, bad).ok());

  // Missing handoff link (ring(3) has all pairs adjacent; use a line).
  sden::SdenNetwork line_net(
      topology::uniform_edge_network(topology::line(3), 1));
  Controller line_seed;
  sden::SdenNetwork line_seed_net(
      topology::uniform_edge_network(topology::line(3), 1));
  ASSERT_TRUE(line_seed.initialize(line_seed_net).ok());
  auto line_snap = capture_snapshot(line_seed, line_seed_net);
  ASSERT_TRUE(line_snap.ok());
  Snapshot no_edge = line_snap.value();
  rw.original = 0;       // server 0 on switch 0
  rw.replacement = 2;    // server on switch 2
  rw.via_switch = 2;     // but line(3) has no 0-2 link
  no_edge.rewrites = {{0, rw}};
  Controller c2;
  EXPECT_FALSE(restore_snapshot(c2, line_net, no_edge).ok());
}

// A restore replaces the whole control-plane state: no answer cached
// before the restore may be served afterwards, whatever path rebuilt
// the plans. Pins the explicit hot-key-cache epoch bump at the end of
// restore_snapshot (defense in depth over the per-mutation
// invalidations riding on initialize_with_positions).
TEST(SnapshotTest, RestoreDropsCachedRetrievalAnswers) {
  auto built = GredSystem::create(
      topology::uniform_edge_network(topology::grid(4, 4), 2));
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();
  sden::HotKeyCache& cache = sys.network().enable_hot_key_cache();

  ASSERT_TRUE(sys.place("snap-item", "payload-v1", 0).ok());
  ASSERT_TRUE(sys.retrieve("snap-item", 3).ok());  // learn-mode fill
  auto warm = sys.retrieve("snap-item", 3);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().served_from_cache);

  auto snap = capture_snapshot(sys.controller(), sys.network());
  ASSERT_TRUE(snap.ok());
  const std::uint64_t invalidations_before = cache.invalidations();
  ASSERT_TRUE(
      restore_snapshot(sys.controller(), sys.network(), snap.value()).ok());
  EXPECT_GT(cache.invalidations(), invalidations_before);

  // First post-restore retrieval must route for real — and agree with
  // the uncached answer bit for bit.
  auto after = sys.retrieve("snap-item", 3);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().served_from_cache);
  cache.set_enabled(false);
  auto plain = sys.retrieve("snap-item", 3);
  cache.set_enabled(true);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(after.value().route.payload, plain.value().route.payload);
  EXPECT_EQ(after.value().route.responder, plain.value().route.responder);
}

}  // namespace
}  // namespace gred::core
