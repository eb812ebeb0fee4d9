// Data-plane fast-path tests: the compiled route plan held
// bit-identical to the oracle (reference_route over the live
// Switch::process pipeline) on random topologies — with transit
// switches, range extensions and faulted handoffs too — plan
// invalidation on every mutation route, the indexed FlowTable,
// ItemStore, EventQueue ordering, and thread-count invariance of the
// parallel retrieval replay.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/delay_experiment.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "sden/event_queue.hpp"
#include "sden/flow_table.hpp"
#include "sden/item_store.hpp"
#include "sden/network.hpp"
#include "sden/reference_router.hpp"
#include "shard/sharded_data_plane.hpp"
#include "topology/waxman.hpp"

namespace gred {
namespace {

/// A Waxman substrate with 1-4 servers per switch. With a nonzero
/// `transit_share`, that share of the switches (in expectation) gets
/// no servers: pure transit switches without a virtual position
/// (Section IV-C), which greedy walks cross only over virtual links.
topology::EdgeNetwork make_net(std::size_t switches, std::uint64_t seed,
                               double transit_share = 0.0) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  topology::EdgeNetwork net(std::move(topo).value().graph);
  for (std::size_t s = 0; s < switches; ++s) {
    if (transit_share > 0.0 && rng.bernoulli(transit_share)) continue;
    // 1-4 servers per switch so H(d) mod s exercises several ranges.
    const std::size_t count = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(net.attach_server(s).ok());
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
    // FAILED routes must stay bit-identical too: same classified code,
    // same message (both sides build them via route_errors).
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

// The compiled fast path must produce the exact RouteResult of the
// live Switch::process walk for every packet type, on several random
// Waxman substrates.
TEST(DataPlaneDifferential, FastPathMatchesLivePipeline) {
  for (const std::size_t n : {24u, 64u}) {
    for (const std::uint64_t seed : {501u, 502u}) {
      auto sys = core::GredSystem::create(
          make_net(n, seed), core::VirtualSpaceOptions{});
      ASSERT_TRUE(sys.ok());
      sden::SdenNetwork& net = sys.value().network();
      Rng rng(seed * 7);

      sden::RouteResult fast;
      sden::Packet scratch;
      for (std::size_t i = 0; i < 60; ++i) {
        const std::string id =
            "diff-" + std::to_string(seed) + "-" + std::to_string(i);
        const sden::SwitchId ingress = rng.next_below(n);

        // Placement: fast path first (stores), then the reference
        // overwrites the same id — identical path and delivery.
        scratch = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
        net.route(scratch, ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        const sden::RouteResult ref_place = sden::reference_route(
            net, make_packet(id, sden::PacketType::kPlacement, "v-" + id),
            ingress);
        expect_identical(fast, ref_place, "placement " + id);

        // Retrieval from a different random ingress.
        const sden::SwitchId r_ingress = rng.next_below(n);
        scratch = make_packet(id, sden::PacketType::kRetrieval);
        net.route(scratch, r_ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        EXPECT_TRUE(fast.found) << id;
        EXPECT_EQ(fast.payload, "v-" + id);
        const sden::RouteResult ref_get = sden::reference_route(
            net, make_packet(id, sden::PacketType::kRetrieval), r_ingress);
        expect_identical(fast, ref_get, "retrieval " + id);

        // Removal via the fast path; the reference then misses.
        scratch = make_packet(id, sden::PacketType::kRemoval);
        net.route(scratch, r_ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        EXPECT_TRUE(fast.found) << id;
        const sden::RouteResult ref_gone = sden::reference_route(
            net, make_packet(id, sden::PacketType::kRetrieval), r_ingress);
        EXPECT_FALSE(ref_gone.found) << id;
      }
    }
  }
}

// Placement, retrieval and removal through route(), the oracle and a
// 2-shard replay, on a substrate the other differentials never build:
// a quarter of the switches are server-less transit switches relaying
// virtual links, and a few servers are range-extended, so delivery at
// their switch takes Switch::deliver's rewrite targets and may hand off
// to a neighbor switch. Then every handoff link is hard-dropped, and
// all three routers must fail identically with kLinkDown.
TEST(DataPlaneDifferential, TransitSwitchesAndRangeExtensions) {
  struct Handoff {
    sden::SwitchId at;
    sden::SwitchId via;
  };
  std::size_t transit_hops = 0;
  std::size_t two_target_retrievals = 0;
  std::size_t faulted_handoffs = 0;
  for (const std::uint64_t seed : {811u, 812u, 813u}) {
    const std::size_t n = 48;
    auto sys = core::GredSystem::create(make_net(n, seed, 0.25),
                                        core::VirtualSpaceOptions{});
    ASSERT_TRUE(sys.ok());
    sden::SdenNetwork& net = sys.value().network();
    Rng rng(seed * 5);
    std::vector<sden::SwitchId> access;
    for (sden::SwitchId s = 0; s < n; ++s) {
      if (net.const_switch_at(s).dt_participant()) access.push_back(s);
    }
    ASSERT_LT(access.size(), n);

    // Items placed before any extension stay on the original servers;
    // the ones placed after land on the delegates.
    std::vector<std::string> ids;
    std::vector<sden::SwitchId> ingresses;
    sden::RouteResult placed;
    for (std::size_t i = 0; i < 100; ++i) {
      ids.push_back("tr-" + std::to_string(seed) + "-" + std::to_string(i));
      ingresses.push_back(access[rng.next_below(access.size())]);
      if (i % 2 == 1) continue;
      sden::Packet pkt = make_packet(ids.back(), sden::PacketType::kPlacement,
                                     "old-" + ids.back());
      net.route(pkt, ingresses.back(), placed);
      ASSERT_TRUE(placed.status.ok()) << ids.back();
    }

    // Extend a few servers; one with no server on any neighbor switch
    // has no delegate and is skipped.
    std::vector<Handoff> handoffs;
    for (std::size_t tries = 0; tries < 64 && handoffs.size() < 8; ++tries) {
      const topology::ServerId s = rng.next_below(net.server_count());
      if (!sys.value().extend_range(s).ok()) continue;
      const sden::SwitchId at = net.server(s).info().attached_to;
      const sden::RewriteEntry* rw =
          net.const_switch_at(at).table().find_rewrite(s);
      ASSERT_NE(rw, nullptr);
      handoffs.push_back({at, rw->via_switch});
    }
    ASSERT_FALSE(handoffs.empty());
    shard::ShardedDataPlane plane(net, 2);

    // Routes one packet through all three routers; `before` runs ahead
    // of each, so a removal can start every run from the same state.
    const auto three_way = [&](const sden::Packet& pkt,
                               sden::SwitchId ingress, const auto& before,
                               const std::string& what) {
      before();
      sden::Packet scratch = pkt;
      sden::RouteResult fast;
      net.route(scratch, ingress, fast);
      before();
      const sden::RouteResult oracle =
          sden::reference_route(net, pkt, ingress);
      before();
      sden::RouteResult sharded;
      plane.replay(&pkt, &ingress, 1, &sharded);
      expect_identical(fast, oracle, "oracle " + what);
      expect_identical(fast, sharded, "sharded " + what);
      return fast;
    };
    const auto nothing = [] {};

    // Re-places item i (through route()) ahead of a removal.
    std::size_t current = 0;
    const auto replace = [&] {
      sden::Packet pkt = make_packet(ids[current],
                                     sden::PacketType::kPlacement,
                                     "v-" + ids[current]);
      net.route(pkt, ingresses[current], placed);
    };

    std::vector<bool> handed_off(ids.size(), false);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      current = i;
      const std::string& id = ids[i];
      // Odd ids are new here; even ids keep their pre-extension copy
      // on the original server until this overwrite.
      const sden::RouteResult got_old = three_way(
          make_packet(id, sden::PacketType::kRetrieval), ingresses[i],
          nothing, "retrieval before placement " + id);
      EXPECT_EQ(got_old.found, i % 2 == 0) << id;
      ASSERT_TRUE(three_way(make_packet(id, sden::PacketType::kPlacement,
                                        "v-" + id),
                            ingresses[i], nothing, "placement " + id)
                      .status.ok());
      const sden::RouteResult got = three_way(
          make_packet(id, sden::PacketType::kRetrieval), ingresses[i],
          nothing, "retrieval " + id);
      ASSERT_TRUE(got.status.ok()) << id;
      EXPECT_EQ(got.payload, "v-" + id);
      const sden::RouteResult gone = three_way(
          make_packet(id, sden::PacketType::kRemoval), ingresses[i], replace,
          "removal " + id);
      EXPECT_TRUE(gone.found) << id;
      replace();

      for (const sden::SwitchId s : got.switch_path) {
        if (!net.const_switch_at(s).dt_participant()) ++transit_hops;
      }
      handed_off[i] = got.delivered_to.size() == 2;
      if (handed_off[i]) ++two_target_retrievals;
    }

    sden::FaultState faults;
    faults.seed = seed;
    for (const Handoff& h : handoffs) faults.set_link_drop(h.at, h.via, 1.0);
    net.set_fault_state(&faults);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      current = i;
      for (const sden::PacketType type :
           {sden::PacketType::kRetrieval, sden::PacketType::kPlacement,
            sden::PacketType::kRemoval}) {
        const sden::Packet pkt = make_packet(ids[i], type, "v-" + ids[i]);
        const std::string what = "faulted " + ids[i];
        const sden::RouteResult r =
            type == sden::PacketType::kRemoval
                ? three_way(pkt, ingresses[i], replace, what)
                : three_way(pkt, ingresses[i], nothing, what);
        if (!handed_off[i]) continue;
        ASSERT_FALSE(r.status.ok()) << ids[i];
        EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown) << ids[i];
        ++faulted_handoffs;
      }
    }
    net.set_fault_state(nullptr);
  }
  EXPECT_GT(transit_hops, 0u);
  EXPECT_GT(two_target_retrievals, 0u);
  EXPECT_GT(faulted_handoffs, 0u);
}

// Mutating a switch through any accessor must invalidate the compiled
// plan: the next route sees the new forwarding state.
TEST(DataPlaneDifferential, PlanRebuildsAfterMutation) {
  auto sys =
      core::GredSystem::create(make_net(24, 77), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  const std::string id = "plan-rebuild";
  ASSERT_TRUE(sys.value().place(id, "payload", 0).ok());
  sden::RouteResult result;
  sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, 0, result);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.found);
  ASSERT_GE(result.switch_path.size(), 1u);
  const sden::SwitchId terminal = result.switch_path.back();

  // Wipe the terminal switch's state: the same packet must now be
  // dropped there instead of delivered (the plan was recompiled).
  net.switch_at(terminal).reset();
  pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, terminal, result);
  EXPECT_FALSE(result.status.ok());
  EXPECT_FALSE(result.found);
}

// FAILED routes must match the live pipeline bit for bit: classified
// error code, message, partial switch_path, path_cost — and the
// failure-path contract (found == false, delivered_to empty) holds.
TEST(DataPlaneDifferential, FailedRoutesMatchLivePipeline) {
  auto sys =
      core::GredSystem::create(make_net(32, 611), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  // Find an item whose route covers at least 3 switches so we can
  // break state mid-path.
  std::string id;
  sden::RouteResult healthy;
  for (std::size_t i = 0; i < 200 && healthy.switch_path.size() < 3; ++i) {
    id = "fail-" + std::to_string(i);
    ASSERT_TRUE(sys.value().place(id, "v", i % 32).ok());
    sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
    net.route(pkt, (i * 7) % 32, healthy);
    ASSERT_TRUE(healthy.status.ok());
  }
  ASSERT_GE(healthy.switch_path.size(), 3u);
  const sden::SwitchId ingress = healthy.switch_path.front();
  const sden::SwitchId terminal = healthy.switch_path.back();

  const auto run_both = [&](const std::string& what) {
    sden::RouteResult fast;
    sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
    net.route(pkt, ingress, fast);
    const sden::RouteResult ref = sden::reference_route(
        net, make_packet(id, sden::PacketType::kRetrieval), ingress);
    expect_identical(fast, ref, what);
    EXPECT_FALSE(fast.status.ok()) << what;
    EXPECT_FALSE(fast.found) << what;
    EXPECT_TRUE(fast.delivered_to.empty()) << what;
    EXPECT_EQ(fast.responder, topology::kNoServer) << what;
    EXPECT_TRUE(fast.payload.empty()) << what;
    return fast;
  };

  // Crashed terminal switch: the packet black-holes on the approach
  // hop, keeping the partial path up to the drop.
  sden::FaultState faults;
  faults.seed = 99;
  faults.set_switch_down(terminal, true);
  net.set_fault_state(&faults);
  {
    const sden::RouteResult r = run_both("terminal switch down");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_LT(r.switch_path.size(), healthy.switch_path.size());
    EXPECT_FALSE(r.switch_path.empty());
  }

  // Crashed ingress: the packet never enters; the path stays empty.
  faults.set_switch_down(terminal, false);
  faults.set_switch_down(ingress, true);
  {
    const sden::RouteResult r = run_both("ingress switch down");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_TRUE(r.switch_path.empty());
  }

  // Hard-down link on the first healthy hop.
  faults.set_switch_down(ingress, false);
  faults.set_link_drop(healthy.switch_path[0], healthy.switch_path[1], 1.0);
  {
    const sden::RouteResult r = run_both("hard-down link");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_EQ(r.switch_path.size(), 1u);
  }

  // Flaky links everywhere: both routers must agree packet by packet
  // on the deterministic drop decision (same hash inputs both sides).
  faults.clear_link(healthy.switch_path[0], healthy.switch_path[1]);
  for (const auto& [u, v] : net.description().switches().edges()) {
    faults.set_link_drop(u, v, 0.35);
  }
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string flaky_id = "flaky-" + std::to_string(i);
    ASSERT_TRUE(net.fault_state() != nullptr);
    sden::RouteResult fast;
    sden::Packet pkt = make_packet(flaky_id, sden::PacketType::kRetrieval);
    net.route(pkt, ingress, fast);
    const sden::RouteResult ref = sden::reference_route(
        net, make_packet(flaky_id, sden::PacketType::kRetrieval), ingress);
    expect_identical(fast, ref, flaky_id);
    if (!fast.status.ok()) ++dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 40u);
  net.set_fault_state(nullptr);

  // With faults cleared, the original route works again.
  sden::RouteResult after;
  sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, ingress, after);
  EXPECT_TRUE(after.status.ok());
  EXPECT_TRUE(after.found);

  // A link removed under the installed tables (no controller install):
  // the link change alone makes the plan recompile, so it stops
  // crossing the link exactly where the oracle does.
  const sden::SwitchId first = healthy.switch_path[0];
  const sden::SwitchId second = healthy.switch_path[1];
  const double weight =
      net.description().switches().find_edge(first, second)->weight;
  ASSERT_TRUE(net.remove_link(second, first));
  {
    const sden::RouteResult r = run_both("link removed under the tables");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_EQ(r.switch_path.size(), 1u);
  }
  ASSERT_TRUE(net.add_link(second, first, weight).ok());

  // Table-miss classification: a reset switch mid-path turns into a
  // non-DT transit node; both routers report kNoRoute identically.
  net.switch_at(terminal).reset();
  {
    const sden::RouteResult r = run_both("reset terminal switch");
    EXPECT_EQ(r.status.error().code, ErrorCode::kNoRoute);
    EXPECT_EQ(r.switch_path, healthy.switch_path);
  }
}

// A read-only inspection pass (reference router, metrics, validators)
// must leave a freshly built plan intact: only mutating accessors may
// invalidate it.
TEST(DataPlaneDifferential, PlanSurvivesReadOnlyInspection) {
  auto sys =
      core::GredSystem::create(make_net(24, 303), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();
  ASSERT_TRUE(sys.value().place("inspect", "v", 0).ok());

  // First route builds the plan.
  sden::RouteResult r;
  sden::Packet pkt = make_packet("inspect", sden::PacketType::kRetrieval);
  net.route(pkt, 0, r);
  ASSERT_TRUE(r.status.ok());
  ASSERT_FALSE(net.route_plan_stale());

  // Reference-route the same packet (walks const_switch_at every hop)
  // and sweep every switch read-only: the plan must stay fresh.
  (void)sden::reference_route(
      net, make_packet("inspect", sden::PacketType::kRetrieval), 0);
  std::size_t dt = 0;
  for (sden::SwitchId s = 0; s < net.switch_count(); ++s) {
    if (net.const_switch_at(s).dt_participant()) ++dt;
  }
  EXPECT_GT(dt, 0u);
  EXPECT_FALSE(net.route_plan_stale());

  // The mutable accessor conservatively invalidates.
  (void)net.switch_at(0);
  EXPECT_TRUE(net.route_plan_stale());
}

/// Bitwise equality: plan words pack integers into doubles and mark
/// missing links with NaN, so operator== on the doubles would not do.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A synced route plan is a pure function of the network: after every
// kind of control-plane change, sync_plan leaves the plan equal word for
// word to a fresh compile_plan_subset of the same switches, with the
// same relay actions.
TEST(DataPlaneDifferential, SyncedPlanEqualsFreshCompile) {
  const std::size_t n = 24;
  auto sys =
      core::GredSystem::create(make_net(n, 404), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();
  Rng rng(405);

  sden::RoutePlan plan;
  const auto sync_matches_fresh = [&](const std::string& when) {
    std::vector<std::uint32_t> owned(net.switch_count());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      owned[i] = static_cast<std::uint32_t>(i);
    }
    net.sync_plan(plan, owned);
    sden::RoutePlan fresh;
    net.compile_plan_subset(fresh, owned.data(), owned.size());
    EXPECT_EQ(plan.offset, fresh.offset) << when;
    EXPECT_TRUE(same_bits(plan.hot, fresh.hot)) << when;
    EXPECT_EQ(plan.servers, fresh.servers) << when;
    ASSERT_EQ(plan.relays.size(), fresh.relays.size()) << when;
    for (const std::uint32_t sw : owned) {
      for (const sden::RelayEntry& r :
           net.const_switch_at(sw).table().relays()) {
        const Key2 key{sw, r.dest};
        const sden::PlanRelay* got = plan.relays.find(key);
        const sden::PlanRelay* want = fresh.relays.find(key);
        ASSERT_NE(want, nullptr) << when;
        ASSERT_NE(got, nullptr) << when << " switch " << sw;
        EXPECT_EQ(got->succ, want->succ) << when << " switch " << sw;
        EXPECT_EQ(std::memcmp(&got->weight, &want->weight, sizeof(double)),
                  0)
            << when << " switch " << sw;
      }
    }
  };
  sync_matches_fresh("initial");

  // A link add and a link remove.
  sden::SwitchId u = 0;
  sden::SwitchId v = 0;
  do {
    u = rng.next_below(n);
    v = rng.next_below(n);
  } while (u == v || net.description().switches().has_edge(u, v));
  ASSERT_TRUE(sys.value().add_link(u, v).ok());
  sync_matches_fresh("add_link");
  bool removed = false;
  for (sden::SwitchId a = 0; a < n && !removed; ++a) {
    for (const graph::EdgeTo& e : net.description().switches().neighbors(a)) {
      if (sys.value().remove_link(a, e.to).ok()) {
        removed = true;
        break;
      }
    }
  }
  ASSERT_TRUE(removed);
  sync_matches_fresh("remove_link");

  // A switch join and a switch leave.
  const auto joined = sys.value().add_switch({u, v}, /*servers=*/2);
  ASSERT_TRUE(joined.ok());
  sync_matches_fresh("add_switch");
  bool left = false;
  for (sden::SwitchId a = 0; a < n && !left; ++a) {
    left = sys.value().remove_switch(a).ok();
  }
  ASSERT_TRUE(left);
  sync_matches_fresh("remove_switch");

  // A range extend and its retraction.
  topology::ServerId extended = topology::kNoServer;
  for (topology::ServerId s = 0; s < net.server_count(); ++s) {
    if (sys.value().extend_range(s).ok()) {
      extended = s;
      break;
    }
  }
  ASSERT_NE(extended, topology::kNoServer);
  sync_matches_fresh("extend_range");
  ASSERT_TRUE(sys.value().retract_range(extended).ok());
  sync_matches_fresh("retract_range");

  // An op that fails after mutating the network and rolls back: the
  // duplicate link target fails once the joiner and its first link
  // exist.
  ASSERT_FALSE(sys.value().add_switch({u, u}, /*servers=*/1).ok());
  sync_matches_fresh("rolled-back add_switch");
}

TEST(FlowTableIndex, RelayFirstInstalledWinsAndDedup) {
  sden::FlowTable table;
  table.add_relay({1, 2, 3, 9});   // first entry for dest 9
  table.add_relay({4, 5, 6, 9});   // different sour, same dest
  ASSERT_EQ(table.relays().size(), 2u);

  const sden::RelayEntry* hit = table.find_relay(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sour, 1u);
  EXPECT_EQ(hit->succ, 3u);

  // Re-adding the same <sour, dest> updates in place — no growth, and
  // the dest match still resolves to the first-installed entry.
  table.add_relay({1, 2, 7, 9});
  EXPECT_EQ(table.relays().size(), 2u);
  hit = table.find_relay(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->succ, 7u);

  EXPECT_EQ(table.find_relay(8), nullptr);
}

TEST(FlowTableIndex, RelayLookupScalesWithoutDuplicates) {
  // O(1) add_relay regression: installing the same relay set twice
  // (controller re-installation) must not duplicate entries, and every
  // dest must keep resolving to its first entry.
  sden::FlowTable table;
  const std::size_t n = 2000;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      table.add_relay({i, i, i + 1, 10000 + i});
    }
  }
  ASSERT_EQ(table.relays().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const sden::RelayEntry* hit = table.find_relay(10000 + i);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->sour, i);
  }
}

TEST(FlowTableIndex, RewriteRemoveReindexes) {
  sden::FlowTable table;
  table.add_rewrite({10, 20, 1});
  table.add_rewrite({11, 21, 2});
  table.add_rewrite({12, 22, 3});
  table.remove_rewrite(11);
  ASSERT_EQ(table.rewrites().size(), 2u);
  EXPECT_EQ(table.find_rewrite(11), nullptr);
  const sden::RewriteEntry* tail = table.find_rewrite(12);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->replacement, 22u);
  EXPECT_EQ(tail->via_switch, 3u);
}

TEST(ItemStoreTest, UpsertFindEraseIterate) {
  sden::ItemStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.find("missing"), nullptr);

  const std::size_t n = 500;
  for (std::size_t i = 0; i < n; ++i) {
    store.upsert("item-" + std::to_string(i), "v" + std::to_string(i));
  }
  EXPECT_EQ(store.size(), n);

  // Overwrite keeps the size and replaces the payload.
  store.upsert("item-7", "updated");
  EXPECT_EQ(store.size(), n);
  ASSERT_NE(store.find("item-7"), nullptr);
  EXPECT_EQ(*store.find("item-7"), "updated");

  // Erase every odd item; evens must stay reachable through the
  // backward-shift compaction.
  for (std::size_t i = 1; i < n; i += 2) {
    EXPECT_TRUE(store.erase("item-" + std::to_string(i)));
  }
  EXPECT_FALSE(store.erase("item-1"));
  EXPECT_EQ(store.size(), n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* hit = store.find("item-" + std::to_string(i));
    if (i % 2 == 0) {
      ASSERT_NE(hit, nullptr) << i;
    } else {
      EXPECT_EQ(hit, nullptr) << i;
    }
  }

  // Iteration yields exactly the survivors.
  std::size_t seen = 0;
  for (const auto& [id, payload] : store) {
    EXPECT_EQ(id.rfind("item-", 0), 0u);
    EXPECT_FALSE(payload.empty());
    ++seen;
  }
  EXPECT_EQ(seen, n / 2);
}

TEST(EventQueueTest, OrdersByTimeWithFifoTies) {
  sden::EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });  // FIFO among equals
  q.schedule_at(3.0, [&] { order.push_back(4); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 4u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);

  // Scheduling into the past clamps to now (time stays monotonic), and
  // handlers scheduling new events keep running.
  q.schedule_at(1.0, [&q, &order] {
    order.push_back(5);
    q.schedule_after(0.5, [&order] { order.push_back(6); });
  });
  q.run();
  EXPECT_EQ(order.back(), 6);
  EXPECT_DOUBLE_EQ(q.now(), 3.5);
}

// The parallel retrieval replay must produce the same aggregate result
// for any thread count (deterministic sharding + reduction).
TEST(ParallelReplay, ThreadCountInvariance) {
  auto sys =
      core::GredSystem::create(make_net(32, 909), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  std::vector<std::string> ids;
  Rng place_rng(3);
  for (std::size_t i = 0; i < 40; ++i) {
    ids.push_back("replay-" + std::to_string(i));
    ASSERT_TRUE(
        sys.value().place(ids.back(), "payload", place_rng.next_below(32)).ok());
  }

  ThreadPool one(1);
  ThreadPool four(4);
  core::DelayModelOptions serial;
  serial.pool = &one;
  core::DelayModelOptions parallel;
  parallel.pool = &four;

  Rng r1(42);
  auto s = core::RetrievalDelayExperiment(sys.value(), serial)
               .run_uniform(ids, 300, 0.05, r1);
  Rng r2(42);
  auto p = core::RetrievalDelayExperiment(sys.value(), parallel)
               .run_uniform(ids, 300, 0.05, r2);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s.value().requests, p.value().requests);
  EXPECT_EQ(s.value().not_found, p.value().not_found);
  EXPECT_EQ(s.value().delay.count, p.value().delay.count);
  EXPECT_DOUBLE_EQ(s.value().delay.mean, p.value().delay.mean);
  EXPECT_DOUBLE_EQ(s.value().delay.p50, p.value().delay.p50);
  EXPECT_DOUBLE_EQ(s.value().delay.p99, p.value().delay.p99);
  EXPECT_DOUBLE_EQ(s.value().makespan_ms, p.value().makespan_ms);
}

}  // namespace
}  // namespace gred
