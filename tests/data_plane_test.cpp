// Data-plane fast-path tests: the compiled route plan held
// bit-identical to the oracle (reference_route over the live
// Switch::process pipeline) on random topologies — with transit
// switches, range extensions and faulted handoffs too — plan
// invalidation on every mutation route, the indexed FlowTable,
// ItemStore, and thread-count invariance of the parallel retrieval
// replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/delay_experiment.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "geometry/argmin.hpp"
#include "sden/flow_table.hpp"
#include "sden/item_store.hpp"
#include "sden/network.hpp"
#include "sden/plan_walk.hpp"
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

  // Every link out of the ingress hard-down: no candidate's next hop
  // is up, so the greedy step is unchanged and fails on the first hop.
  // (With one link cut, the step would take the best live candidate.)
  faults.set_switch_down(ingress, false);
  const graph::Graph& links = net.description().switches();
  for (const graph::EdgeTo& e : links.neighbors(ingress)) {
    faults.set_link_drop(ingress, e.to, 1.0);
  }
  {
    const sden::RouteResult r = run_both("hard-down links");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_EQ(r.switch_path.size(), 1u);
  }

  // Flaky links everywhere: both routers must agree packet by packet
  // on the deterministic drop decision (same hash inputs both sides).
  for (const graph::EdgeTo& e : links.neighbors(ingress)) {
    faults.clear_link(ingress, e.to);
  }
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
    // The relay array, entry for entry: successor, link to the
    // successor's entry, and the weight bits (NaN marks a missing link).
    ASSERT_EQ(plan.relays.size(), fresh.relays.size()) << when;
    for (std::size_t i = 0; i < plan.relays.size(); ++i) {
      EXPECT_EQ(plan.relays[i].succ, fresh.relays[i].succ) << when << i;
      EXPECT_EQ(plan.relays[i].next, fresh.relays[i].next) << when << i;
      EXPECT_EQ(std::memcmp(&plan.relays[i].weight, &fresh.relays[i].weight,
                            sizeof(double)),
                0)
          << when << " relay " << i;
    }
    // One entry per installed relay, whose link is the entry its
    // successor matches toward the same destination.
    std::size_t e = 0;
    for (const std::uint32_t sw : owned) {
      for (const sden::RelayEntry& r :
           net.const_switch_at(sw).table().relays()) {
        ASSERT_LT(e, plan.relays.size()) << when;
        EXPECT_EQ(plan.relays[e].succ, r.succ) << when << " " << e;
        ++e;
      }
    }
    EXPECT_EQ(plan.relays.size(), e) << when;
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

// --- the compiled walk's argmin and relay links ---------------------------

/// Candidate columns laid out as a plan region lays them out: x column,
/// then y column, then (here) zeros up to the vector argmin's padding.
struct Columns {
  std::vector<double> words;
  std::size_t k = 0;

  explicit Columns(std::size_t count)
      : words(2 * count + geometry::kArgminBlock, 0.0), k(count) {}
  double* xs() { return words.data(); }
  double* ys() { return words.data() + k; }
};

/// Both argmins over `c` toward (tx, ty) must name the same index and
/// the same squared distance, bit for bit.
void expect_same_argmin(Columns& c, double tx, double ty,
                        const std::string& what) {
  const geometry::Argmin want =
      geometry::argmin_scalar(c.xs(), c.ys(), c.k, tx, ty);
  const geometry::Argmin got = geometry::argmin_avx2(c.xs(), c.ys(), c.k, tx, ty);
  EXPECT_EQ(got.index, want.index) << what;
  EXPECT_EQ(std::memcmp(&got.d2, &want.d2, sizeof(double)), 0)
      << what << ": " << got.d2 << " vs " << want.d2;
}

/// Squared distance the way the scalar loop rounds it, and the two ways
/// a compiler allowed to contract could fuse one product into the sum.
double d2_rounded(double dx, double dy) { return dx * dx + dy * dy; }
double d2_fused_x(double dx, double dy) { return std::fma(dx, dx, dy * dy); }
double d2_fused_y(double dx, double dy) { return std::fma(dy, dy, dx * dx); }

// The AVX2 argmin names the scalar loop's winner on every input: every
// candidate count from 0 to 64 (so every tail, padding lane and later
// block), exact distance ties between lex-ordered positions anywhere in
// the lanes, NaN and overflowing positions, and near-ties whose winner
// moves when dx*dx + dy*dy is computed with a fused multiply-add.
TEST(PlanWalkTest, SimdArgminMatchesScalarOracle) {
#if defined(__x86_64__)
  EXPECT_EQ(geometry::kAvx2Argmin, __builtin_cpu_supports("avx2") != 0);
#endif
  if (!geometry::kAvx2Argmin) {
    GTEST_SKIP() << "no AVX2: plan_step runs the scalar argmin only";
  }
  Rng rng(2501);

  // Random columns, including inputs no argmin may pick.
  for (std::size_t k = 0; k <= 64; ++k) {
    for (int trial = 0; trial < 60; ++trial) {
      Columns c(k);
      for (std::size_t i = 0; i < k; ++i) {
        c.xs()[i] = rng.uniform(-0.5, 1.5);
        c.ys()[i] = rng.uniform(-0.5, 1.5);
        if (trial % 10 == 9 && rng.bernoulli(0.3)) {
          // A NaN coordinate, or one whose square overflows to +inf.
          (rng.bernoulli(0.5) ? c.xs() : c.ys())[i] =
              rng.bernoulli(0.5) ? std::numeric_limits<double>::quiet_NaN()
                                 : 1e200;
        }
      }
      expect_same_argmin(c, rng.next_double(), rng.next_double(),
                         "random k=" + std::to_string(k));
    }
  }

  // Exact ties: dyadic offsets from a dyadic target, so every distance
  // is exact. The tied pair (lex order, like the plan's columns) sits
  // at lanes i < j, everything else farther away; the first wins.
  const double tx = 0.5;
  const double ty = 0.25;
  std::size_t ties = 0;
  for (std::size_t k = 2; k <= 64; ++k) {
    for (std::size_t i = 0; i + 1 < k; i += 3) {
      for (const std::size_t j : {i + 1, i + 4, i + 5, k - 1}) {
        if (j <= i || j >= k) continue;
        Columns c(k);
        for (std::size_t l = 0; l < k; ++l) {
          c.xs()[l] = tx + static_cast<double>(l + 3) / 16.0;
          c.ys()[l] = ty - static_cast<double>(l + 3) / 16.0;
        }
        // (tx - 3/64, ty + 5/64) and (tx + 3/64, ty + 5/64): equal
        // distance, the first lex-smaller.
        c.xs()[i] = tx - 3.0 / 64.0;
        c.ys()[i] = ty + 5.0 / 64.0;
        c.xs()[j] = tx + 3.0 / 64.0;
        c.ys()[j] = ty + 5.0 / 64.0;
        expect_same_argmin(c, tx, ty,
                           "tie k=" + std::to_string(k) + " lanes " +
                               std::to_string(i) + "," + std::to_string(j));
        EXPECT_EQ(geometry::argmin_avx2(c.xs(), c.ys(), k, tx, ty).index, i);
        ++ties;
      }
    }
  }
  EXPECT_GT(ties, 500u);

  // Near-ties: two candidates at the same radius from the target, whose
  // order under rounded products differs from their order under one of
  // the fused forms. A vector body compiled with FMA contraction picks
  // the other candidate on some of them.
  std::size_t flips_x = 0;
  std::size_t flips_y = 0;
  for (std::size_t attempt = 0;
       attempt < 400000 && (flips_x < 64 || flips_y < 64); ++attempt) {
    const double px = rng.next_double();
    const double py = rng.next_double();
    const double r = rng.uniform(1e-3, 0.4);
    const double t1 = rng.uniform(0.0, 6.283185307179586);
    const double t2 = rng.uniform(0.0, 6.283185307179586);
    const double ax = px + r * std::cos(t1);
    const double ay = py + r * std::sin(t1);
    const double bx = px + r * std::cos(t2);
    const double by = py + r * std::sin(t2);
    const double adx = ax - px;
    const double ady = ay - py;
    const double bdx = bx - px;
    const double bdy = by - py;
    // Whether a (at the lower lane) wins under each rounding.
    const bool plain = !(d2_rounded(bdx, bdy) < d2_rounded(adx, ady));
    const bool fused_x = !(d2_fused_x(bdx, bdy) < d2_fused_x(adx, ady));
    const bool fused_y = !(d2_fused_y(bdx, bdy) < d2_fused_y(adx, ady));
    if (plain == fused_x && plain == fused_y) continue;
    if (plain != fused_x) ++flips_x;
    if (plain != fused_y) ++flips_y;
    const std::size_t k = 2 + rng.next_below(63);
    const std::size_t i = rng.next_below(k - 1);
    const std::size_t j = i + 1 + rng.next_below(k - 1 - i);
    Columns c(k);
    for (std::size_t l = 0; l < k; ++l) {
      c.xs()[l] = px + 2.0 + static_cast<double>(l);
      c.ys()[l] = py - 2.0;
    }
    c.xs()[i] = ax;
    c.ys()[i] = ay;
    c.xs()[j] = bx;
    c.ys()[j] = by;
    expect_same_argmin(c, px, py, "near-tie " + std::to_string(attempt));
    EXPECT_EQ(geometry::argmin_scalar(c.xs(), c.ys(), k, px, py).index,
              plain ? i : j);
  }
  EXPECT_GE(flips_x, 64u);
  EXPECT_GE(flips_y, 64u);
}

/// One relay hop of an oracle walk: a packet on the virtual link toward
/// `dest` moved from `from` to `to` along a relay tuple.
struct RelayHop {
  sden::SwitchId from;
  sden::SwitchId to;
  sden::SwitchId dest;
};

/// The relay hops of Switch::process's walk of `pkt` from `ingress` on
/// a healthy network, in walk order.
std::vector<RelayHop> oracle_relay_hops(const sden::SdenNetwork& net,
                                        sden::Packet pkt,
                                        sden::SwitchId ingress) {
  std::vector<RelayHop> hops;
  sden::SwitchId cur = ingress;
  for (std::size_t step = 0; step < net.max_route_hops(); ++step) {
    const bool relaying = pkt.on_virtual_link() && pkt.vlink_dest != cur;
    const sden::SwitchId dest = pkt.vlink_dest;
    const sden::Decision d = net.const_switch_at(cur).process(pkt);
    if (d.kind != sden::Decision::Kind::kForward) break;
    if (relaying) hops.push_back({cur, d.next_hop, dest});
    cur = d.next_hop;
  }
  return hops;
}

/// Re-installs `sw`'s flow table with its relays toward `dest` dropped
/// (succ == kNoSwitch) or pointed at `succ`: corrupted tables no
/// controller would install.
void rewrite_relays(sden::SdenNetwork& net, sden::SwitchId sw,
                    sden::SwitchId dest, sden::SwitchId succ) {
  sden::FlowTable& table = net.switch_at(sw).table();
  const sden::FlowTable old = table;
  table.clear();
  for (const sden::NeighborEntry& e : old.neighbors()) table.add_neighbor(e);
  for (sden::RelayEntry r : old.relays()) {
    if (r.dest == dest) {
      if (succ == sden::kNoSwitch) continue;
      r.succ = succ;
    }
    table.add_relay(r);
  }
  for (const sden::RewriteEntry& e : old.rewrites()) table.add_rewrite(e);
}

// Relay hops step by compiled link: route(), the oracle and a 2-shard
// replay agree on healthy virtual links (some of which hand the packet,
// and its relay index, to the other shard mid-link), and on corrupted
// ones: a relay missing mid-link (kNoRoute where the packet stands), a
// relay over a removed link (kLinkDown), and two relays pointing at
// each other (kRoutingLoop at the hop bound, the same step for all).
TEST(PlanWalkTest, LinkedRelaysMatchOracleAndShards) {
  std::size_t relay_hops = 0;
  std::size_t crossing_links = 0;
  std::size_t no_relay = 0;
  std::size_t missing_link = 0;
  std::size_t loops = 0;
  for (const std::uint64_t seed : {821u, 822u, 823u}) {
    const std::size_t n = 48;
    const auto build = [&] {
      auto sys = core::GredSystem::create(make_net(n, seed, 0.25),
                                          core::VirtualSpaceOptions{});
      EXPECT_TRUE(sys.ok());
      return std::move(sys).value();
    };
    core::GredSystem sys = build();
    sden::SdenNetwork& net = sys.network();
    std::vector<sden::SwitchId> access;
    for (sden::SwitchId s = 0; s < n; ++s) {
      if (net.const_switch_at(s).dt_participant()) access.push_back(s);
    }
    Rng rng(seed * 3);

    // Retrievals whose walk takes at least one relay hop.
    std::vector<sden::Packet> pkts;
    std::vector<sden::SwitchId> ingresses;
    std::vector<std::vector<RelayHop>> hops;
    for (std::size_t i = 0; i < 300 && pkts.size() < 60; ++i) {
      const std::string id = "rl-" + std::to_string(seed) + "-" +
                             std::to_string(i);
      const sden::SwitchId ingress = access[rng.next_below(access.size())];
      ASSERT_TRUE(sys.place(id, "v-" + id, ingress).ok());
      const sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
      std::vector<RelayHop> walk = oracle_relay_hops(net, pkt, ingress);
      if (walk.empty()) continue;
      pkts.push_back(pkt);
      ingresses.push_back(ingress);
      hops.push_back(std::move(walk));
    }
    ASSERT_FALSE(pkts.empty());

    shard::ShardedDataPlane plane(net, 2);
    const auto three_way = [&](std::size_t i, const std::string& what) {
      sden::Packet scratch = pkts[i];
      sden::RouteResult fast;
      net.route(scratch, ingresses[i], fast);
      const sden::RouteResult oracle =
          sden::reference_route(net, pkts[i], ingresses[i]);
      sden::RouteResult sharded;
      plane.replay(&pkts[i], &ingresses[i], 1, &sharded);
      expect_identical(fast, oracle, "oracle " + what);
      expect_identical(fast, sharded, "sharded " + what);
      return fast;
    };

    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const sden::RouteResult r = three_way(i, "healthy " + std::to_string(i));
      EXPECT_TRUE(r.found) << i;
      for (const RelayHop& h : hops[i]) {
        ++relay_hops;
        // The packet reaches `to` still on the link, carrying the index
        // of `to`'s entry, which the other shard's plan resolves.
        if (h.to != h.dest && plane.owner_of(h.from) != plane.owner_of(h.to)) {
          ++crossing_links;
        }
      }
    }

    // Corrupt the tables under one relay hop of each of a few walks,
    // then restore them.
    for (std::size_t i = 0; i < pkts.size(); i += 7) {
      const RelayHop h = hops[i][rng.next_below(hops[i].size())];
      const std::string what = " seed " + std::to_string(seed) + " walk " +
                               std::to_string(i);

      core::GredSystem pristine = build();
      const auto reset = [&] {
        for (sden::SwitchId s = 0; s < n; ++s) {
          net.switch_at(s).table() =
              pristine.network().const_switch_at(s).table();
        }
      };

      rewrite_relays(net, h.from, h.dest, sden::kNoSwitch);
      {
        const sden::RouteResult r = three_way(i, "missing relay" + what);
        ASSERT_FALSE(r.status.ok());
        EXPECT_EQ(r.status.error().code, ErrorCode::kNoRoute);
        EXPECT_NE(r.status.error().message.find("no relay entry"),
                  std::string::npos);
        ++no_relay;
      }
      reset();

      const double weight =
          net.description().switches().find_edge(h.from, h.to)->weight;
      ASSERT_TRUE(net.remove_link(h.from, h.to));
      {
        const sden::RouteResult r = three_way(i, "missing link" + what);
        ASSERT_FALSE(r.status.ok());
        EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
        ++missing_link;
      }
      ASSERT_TRUE(net.add_link(h.from, h.to, weight).ok());

      if (h.to != h.dest) {
        // from -> to -> from -> ... until the hop bound.
        rewrite_relays(net, h.to, h.dest, h.from);
        const sden::RouteResult r = three_way(i, "relay loop" + what);
        ASSERT_FALSE(r.status.ok());
        EXPECT_EQ(r.status.error().code, ErrorCode::kRoutingLoop);
        EXPECT_EQ(r.switch_path.size(), net.max_route_hops() + 1);
        ++loops;
        reset();
      }
      EXPECT_TRUE(three_way(i, "restored" + what).found);
    }
  }
  EXPECT_GT(relay_hops, 0u);
  EXPECT_GT(crossing_links, 0u);
  EXPECT_GT(no_relay, 0u);
  EXPECT_GT(missing_link, 0u);
  EXPECT_GT(loops, 0u);
}

// Under faults, a greedy step skips a candidate whose physical next hop
// is down when another candidate still makes strict progress. The best
// candidate's next hop is crashed, or its link cut, on many walks;
// route(), the oracle and a 2-shard replay agree on every one, statuses
// included, and on some the walk goes around the fault, so a router
// that skipped alone would disagree with the others.
TEST(PlanWalkTest, FaultedStepSkipsDownNeighbour) {
  std::size_t detours = 0;
  std::size_t delivered = 0;
  std::size_t unchanged = 0;
  for (const std::uint64_t seed : {831u, 832u}) {
    const std::size_t n = 64;
    auto built = core::GredSystem::create(make_net(n, seed),
                                          core::VirtualSpaceOptions{});
    ASSERT_TRUE(built.ok());
    core::GredSystem& sys = built.value();
    sden::SdenNetwork& net = sys.network();
    shard::ShardedDataPlane plane(net, 2);
    Rng rng(seed * 11);

    sden::FaultState faults;
    faults.seed = seed;
    for (std::size_t i = 0; i < 120; ++i) {
      const std::string id = "fs-" + std::to_string(seed) + "-" +
                             std::to_string(i);
      const sden::SwitchId ingress = rng.next_below(n);
      ASSERT_TRUE(sys.place(id, "v-" + id, rng.next_below(n)).ok());
      const sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
      sden::Packet scratch = pkt;
      sden::RouteResult healthy;
      net.route(scratch, ingress, healthy);
      ASSERT_TRUE(healthy.found) << id;
      if (healthy.switch_path.size() < 3) continue;
      // The walk's first hop, crashed; then the link to it, cut.
      const sden::SwitchId first = healthy.switch_path[0];
      const sden::SwitchId second = healthy.switch_path[1];
      for (const bool crash : {true, false}) {
        if (crash) {
          faults.set_switch_down(second, true);
        } else {
          faults.set_link_drop(first, second, 1.0);
        }
        net.set_fault_state(&faults);
        scratch = pkt;
        sden::RouteResult fast;
        net.route(scratch, ingress, fast);
        const sden::RouteResult oracle =
            sden::reference_route(net, pkt, ingress);
        sden::RouteResult sharded;
        plane.replay(&pkt, &ingress, 1, &sharded);
        const std::string what =
            id + (crash ? " next switch down" : " link cut");
        expect_identical(fast, oracle, "oracle " + what);
        expect_identical(fast, sharded, "sharded " + what);
        if (fast.switch_path.size() > 1 && fast.switch_path[1] != second) {
          ++detours;
          if (fast.found) ++delivered;
        } else {
          // No live candidate made progress: the step is unchanged and
          // fails on the faulted hop.
          ASSERT_FALSE(fast.status.ok()) << what;
          EXPECT_EQ(fast.status.error().code, ErrorCode::kLinkDown) << what;
          EXPECT_EQ(fast.switch_path.size(), 1u) << what;
          ++unchanged;
        }
        net.set_fault_state(nullptr);
        faults.set_switch_down(second, false);
        faults.clear_link(first, second);
      }
    }
  }
  EXPECT_GT(detours, 20u);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(unchanged, 0u);
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
