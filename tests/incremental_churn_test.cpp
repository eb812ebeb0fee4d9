// Delta-path churn differential soak. A system absorbs a seeded stream
// of dynamics events — switch join/leave, link add/remove, range
// extend/retract — on the delta path (delta-APSP, localized DT repair,
// flow-table patching, then a route-plan recompile at the next route).
// After EVERY event it must be bit-identical to a cold restore of its
// own state: capture_snapshot + restore_snapshot into a fresh
// SdenNetwork over the same topology, which recomputes APSP, builds the
// DT from scratch and installs every switch. Compared:
//
//   1. the delta-maintained APSP tables,
//   2. the repaired DT adjacency,
//   3. the installed flow tables, field by field,
//   4. routed packets through the cold network's fresh plan, the delta
//      system's synced plan, and a 4-shard ShardedDataPlane whose
//      rounds sync their own plans (no refresh call anywhere).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/snapshot.hpp"
#include "crypto/data_key.hpp"
#include "sden/network.hpp"
#include "shard/sharded_data_plane.hpp"
#include "topology/waxman.hpp"

namespace gred {
namespace {

using topology::ServerId;
using topology::SwitchId;

topology::EdgeNetwork make_net(std::size_t switches, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  topology::EdgeNetwork net(std::move(topo).value().graph);
  for (std::size_t s = 0; s < switches; ++s) {
    const std::size_t count = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(net.attach_server(s, /*capacity=*/0).ok());
    }
  }
  return net;
}

sden::Packet make_packet(const std::string& id, sden::PacketType type,
                         const std::string& payload = "") {
  sden::Packet p;
  p.type = type;
  p.data_id = id;
  p.payload = payload;
  const crypto::DataKey key(id);
  p.target = {key.position().x, key.position().y};
  p.set_key(key);
  return p;
}

void expect_identical(const sden::RouteResult& a, const sden::RouteResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status.ok(), b.status.ok()) << what;
  if (!a.status.ok() && !b.status.ok()) {
    EXPECT_EQ(a.status.error().code, b.status.error().code) << what;
    EXPECT_EQ(a.status.error().message, b.status.error().message) << what;
  }
  EXPECT_EQ(a.switch_path, b.switch_path) << what;
  EXPECT_EQ(a.delivered_to, b.delivered_to) << what;
  EXPECT_EQ(a.responder, b.responder) << what;
  EXPECT_EQ(a.payload, b.payload) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_DOUBLE_EQ(a.path_cost, b.path_cost) << what;
}

/// Field-wise flow-table equality of every switch of the two networks
/// (the entry structs carry no operator==). Entry ORDER matters: the
/// live pipeline's match semantics are first-wins over the vectors.
void expect_tables_equal(sden::SdenNetwork& a, sden::SdenNetwork& b,
                         int step) {
  ASSERT_EQ(a.switch_count(), b.switch_count()) << step;
  for (SwitchId s = 0; s < a.switch_count(); ++s) {
    const sden::Switch& sa = a.const_switch_at(s);
    const sden::Switch& sb = b.const_switch_at(s);
    EXPECT_EQ(sa.position().x, sb.position().x) << step << " sw " << s;
    EXPECT_EQ(sa.position().y, sb.position().y) << step << " sw " << s;
    const sden::FlowTable& ta = sa.table();
    const sden::FlowTable& tb = sb.table();
    ASSERT_EQ(ta.neighbors().size(), tb.neighbors().size())
        << step << " sw " << s;
    for (std::size_t i = 0; i < ta.neighbors().size(); ++i) {
      const sden::NeighborEntry& na = ta.neighbors()[i];
      const sden::NeighborEntry& nb = tb.neighbors()[i];
      EXPECT_EQ(na.neighbor, nb.neighbor) << step << " sw " << s;
      EXPECT_EQ(na.position.x, nb.position.x) << step << " sw " << s;
      EXPECT_EQ(na.position.y, nb.position.y) << step << " sw " << s;
      EXPECT_EQ(na.physical, nb.physical) << step << " sw " << s;
      EXPECT_EQ(na.first_hop, nb.first_hop) << step << " sw " << s;
    }
    ASSERT_EQ(ta.relays().size(), tb.relays().size()) << step << " sw " << s;
    for (std::size_t i = 0; i < ta.relays().size(); ++i) {
      const sden::RelayEntry& ra = ta.relays()[i];
      const sden::RelayEntry& rb = tb.relays()[i];
      EXPECT_EQ(ra.sour, rb.sour) << step << " sw " << s;
      EXPECT_EQ(ra.pred, rb.pred) << step << " sw " << s;
      EXPECT_EQ(ra.succ, rb.succ) << step << " sw " << s;
      EXPECT_EQ(ra.dest, rb.dest) << step << " sw " << s;
    }
    ASSERT_EQ(ta.rewrites().size(), tb.rewrites().size())
        << step << " sw " << s;
    for (std::size_t i = 0; i < ta.rewrites().size(); ++i) {
      const sden::RewriteEntry& ra = ta.rewrites()[i];
      const sden::RewriteEntry& rb = tb.rewrites()[i];
      EXPECT_EQ(ra.original, rb.original) << step << " sw " << s;
      EXPECT_EQ(ra.replacement, rb.replacement) << step << " sw " << s;
      EXPECT_EQ(ra.via_switch, rb.via_switch) << step << " sw " << s;
    }
  }
}

TEST(IncrementalChurn, SeededSoakMatchesFullRebuildBitExact) {
  const std::size_t n = 40;
  sden::SdenNetwork net(make_net(n, 0x1CEB00DAu));
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());

  // 4-shard sharded runtime; every replay syncs its plans with the
  // network (fixed shard count so the TSan tree exercises the
  // cross-shard rings deterministically).
  shard::ShardedDataPlane sdp(net, 4);

  Rng seed_rng(0xF00Du);
  std::vector<std::string> live;
  sden::RouteResult scratch;
  for (int i = 0; i < 60; ++i) {
    const std::string id = "inc-" + std::to_string(i);
    sden::Packet p = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
    net.route(p, seed_rng.next_below(n), scratch);
    ASSERT_TRUE(scratch.status.ok()) << id;
    live.push_back(id);
  }

  Rng rng(0xD15EA5Eu);
  auto random_participant = [&]() -> SwitchId {
    const auto& parts = ctrl.space().participants();
    return parts[rng.next_below(parts.size())];
  };

  // After every event, the differential against a cold restore.
  std::vector<sden::Packet> pkts;
  std::vector<SwitchId> ingresses;
  std::vector<sden::RouteResult> shard_results;
  auto verify = [&](int step) {
    auto snap = core::capture_snapshot(ctrl, net);
    ASSERT_TRUE(snap.ok()) << "step " << step;
    sden::SdenNetwork cold(net.description());
    for (ServerId s = 0; s < net.server_count(); ++s) {
      cold.server(s) = net.server(s);
    }
    core::Controller cold_ctrl;
    ASSERT_TRUE(core::restore_snapshot(cold_ctrl, cold, snap.value()).ok())
        << "step " << step;

    // 1. Delta-maintained APSP tables == a fresh recompute, bit-equal.
    EXPECT_TRUE(ctrl.apsp().dist == cold_ctrl.apsp().dist)
        << "step " << step << ": unweighted APSP diverged";
    EXPECT_TRUE(ctrl.apsp_latency().dist == cold_ctrl.apsp_latency().dist)
        << "step " << step << ": weighted APSP diverged";

    // 2. Repaired DT adjacency == a from-scratch build over the same
    // positions (the DT of points in general position is unique).
    const geometry::DelaunayTriangulation& repaired =
        ctrl.dt().triangulation();
    const geometry::DelaunayTriangulation& fresh =
        cold_ctrl.dt().triangulation();
    ASSERT_EQ(repaired.size(), fresh.size()) << "step " << step;
    for (std::size_t i = 0; i < repaired.size(); ++i) {
      EXPECT_EQ(repaired.neighbors(i), fresh.neighbors(i))
          << "step " << step << ": DT adjacency of site " << i;
    }

    // 3. Installed flow tables, field by field.
    expect_tables_equal(net, cold, step);

    // 4. Routing: cold plan vs synced plan vs synced shard plans.
    pkts.clear();
    ingresses.clear();
    for (const std::string& id : live) {
      pkts.push_back(make_packet(id, sden::PacketType::kRetrieval));
      ingresses.push_back(rng.next_below(net.switch_count()));
    }
    shard_results.resize(pkts.size());
    sdp.replay(pkts.data(), ingresses.data(), pkts.size(),
               shard_results.data());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      sden::Packet via_cold = pkts[i];
      sden::RouteResult cold_res;
      cold.route(via_cold, ingresses[i], cold_res);
      sden::Packet via_delta = pkts[i];
      sden::RouteResult delta_res;
      net.route(via_delta, ingresses[i], delta_res);
      const std::string what =
          "step " + std::to_string(step) + " pkt " + std::to_string(i);
      expect_identical(cold_res, delta_res, what + " (synced plan)");
      expect_identical(cold_res, shard_results[i], what + " (sharded)");
    }
  };

  verify(-1);
  ASSERT_FALSE(::testing::Test::HasFailure());

  constexpr int kEvents = 32;
  int delta_events = 0;
  for (int step = 0; step < kEvents; ++step) {
    const std::uint64_t op = rng.next_below(6);
    bool ok = false;
    switch (op) {
      case 0: {  // switch join
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        ok = ctrl.add_switch(net, {u, v}, /*server_count=*/2).ok();
        break;
      }
      case 1: {  // switch leave (keep enough participants alive)
        if (ctrl.space().participants().size() > 8) {
          ok = ctrl.remove_switch(net, random_participant()).ok();
        } else {
          const SwitchId u = random_participant();
          const SwitchId v = random_participant();
          ok = ctrl.add_link(net, u, v).ok();
        }
        break;
      }
      case 2: {  // link add; may fail (exists / self-loop)
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        ok = ctrl.add_link(net, u, v).ok();
        break;
      }
      case 3: {  // link remove; may fail (missing / would disconnect)
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        ok = ctrl.remove_link(net, u, v).ok();
        break;
      }
      case 4:  // range extension; may fail (already active)
        ok = ctrl.extend_range(net, rng.next_below(net.server_count())).ok();
        break;
      default:  // retraction; may fail (none active)
        ok = ctrl.retract_range(net, rng.next_below(net.server_count())).ok();
        break;
    }

    const std::size_t patched = ctrl.last_affected_switches().size();
    if (ok && patched > 0 && patched < net.switch_count()) ++delta_events;

    verify(step);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "identity broke at step " << step << " (op " << op << ")";
  }

  // The point of the soak is local repair; if nearly every event
  // patched every switch the differential proved nothing about it.
  // (Whole-network patches are legal — a hull leave rebuilds the DT —
  // but must stay the exception at this scale.)
  EXPECT_GE(delta_events, kEvents / 3) << "delta path engaged too rarely";
}

// A link add runs on the delta path and reports its patch set.
TEST(IncrementalChurn, LinkAddReportsDeltaPatchSet) {
  topology::EdgeNetwork desc = make_net(16, 0xBEEFu);
  sden::SdenNetwork net(std::move(desc));
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());

  ASSERT_TRUE(ctrl.add_link(net, 0, 9, 1.0).ok() ||
              ctrl.add_link(net, 0, 10, 1.0).ok());
  SwitchId u = 0;
  SwitchId v = 0;
  for (SwitchId cand = 2; cand < net.switch_count(); ++cand) {
    if (net.description().switches().find_edge(1, cand) == nullptr) {
      u = 1;
      v = cand;
      break;
    }
  }
  ASSERT_NE(u, v);
  ASSERT_TRUE(ctrl.add_link(net, u, v, 1.0).ok());
  const auto& affected = ctrl.last_affected_switches();
  EXPECT_FALSE(affected.empty());
  EXPECT_TRUE(std::binary_search(affected.begin(), affected.end(), u));
  EXPECT_TRUE(std::binary_search(affected.begin(), affected.end(), v));
}

/// Restores `snap` into a fresh network over `net`'s topology and
/// storage, expects its flow tables to equal `net`'s, and returns the
/// restored controller's own snapshot.
core::Snapshot cold_restore_matches(sden::SdenNetwork& net,
                                    const core::Snapshot& snap, int step) {
  sden::SdenNetwork cold(net.description());
  for (ServerId s = 0; s < net.server_count(); ++s) {
    cold.server(s) = net.server(s);
  }
  core::Controller cold_ctrl;
  EXPECT_TRUE(core::restore_snapshot(cold_ctrl, cold, snap).ok()) << step;
  expect_tables_equal(net, cold, step);
  auto again = core::capture_snapshot(cold_ctrl, cold);
  EXPECT_TRUE(again.ok()) << step;
  return again.ok() ? again.value() : core::Snapshot{};
}

// Two switches joined to the same pair of participants fit the same
// position; the space nudges the second one, and the DT takes it there.
// Both joins stay local, match a cold restore, and the state survives a
// snapshot text round trip.
TEST(IncrementalChurn, CollidingJoinsStayLocalAndRoundTrip) {
  sden::SdenNetwork net(make_net(64, 0xC011DEu));
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  sden::RouteResult scratch;
  for (int i = 0; i < 40; ++i) {
    const std::string id = "col-" + std::to_string(i);
    sden::Packet p = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
    net.route(p, static_cast<SwitchId>(i % 64), scratch);
    ASSERT_TRUE(scratch.status.ok()) << id;
  }

  std::vector<geometry::Point2D> joined_at;
  for (int step = 0; step < 2; ++step) {
    auto joined = ctrl.add_switch(net, {3, 17}, /*server_count=*/2);
    ASSERT_TRUE(joined.ok()) << joined.error().to_string();
    const auto& affected = ctrl.last_affected_switches();
    EXPECT_FALSE(affected.empty()) << step;
    EXPECT_LT(affected.size(), net.switch_count()) << step;
    joined_at.push_back(
        ctrl.space().positions()[ctrl.space().index_of(joined.value())]);

    auto snap = core::capture_snapshot(ctrl, net);
    ASSERT_TRUE(snap.ok());
    cold_restore_matches(net, snap.value(), step);
  }
  // The fits collided: the second joiner sits a nudge away from the first.
  EXPECT_FALSE(joined_at[0] == joined_at[1]);
  EXPECT_LT(geometry::norm(joined_at[1] - joined_at[0]), 1e-6);

  auto snap = core::capture_snapshot(ctrl, net);
  ASSERT_TRUE(snap.ok());
  auto parsed = core::parse_snapshot(core::serialize_snapshot(snap.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const core::Snapshot again = cold_restore_matches(net, parsed.value(), 2);
  EXPECT_EQ(again.participants, snap.value().participants);
  EXPECT_EQ(again.positions, snap.value().positions);
}

}  // namespace
}  // namespace gred
