// Regression tests for the dynamics/extension correctness bugs:
//   1. Controller::add_switch must be atomic — a mid-sequence failure
//      must leave no half-joined switch in the topology.
//   2. Controller::remove_switch must re-place orphans through the
//      same rewrite-aware path as normal migration.
//   3. The install must preserve active range-extension rewrites across
//      every rebuild (the root cause behind #2: each dynamics op
//      reinstalls all switch state from scratch).
//   4. Controller::remove_switch must be atomic like add_switch — a
//      failed re-placement must not destroy the leaving switch's items.
//   5. A joining switch must land among its neighbours, not on the
//      unit square's boundary (which made every later leave a hull
//      removal).
//   6. With replication on, a leave whose migration already moved
//      items and whose replication repair then fails must undo those
//      moves as well.
//   7. An overwrite made during a range extension leaves the old copy
//      on the home server and the new one on the delegate, where reads
//      answer. An op that ends the delegation must keep the new copy,
//      and its rollback must restore both.
// Each test fails on the pre-fix code. The planned-move primitive's
// edges (all-or-nothing pullback, capacity-bounded hot-item spread)
// close the file.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "core/snapshot.hpp"
#include "obs/switch_load.hpp"
#include "sden/item_store.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::core {
namespace {

using sden::SdenNetwork;
using topology::ServerId;
using topology::SwitchId;

SdenNetwork make_net(graph::Graph g, std::size_t per_switch,
                     std::size_t capacity = 0) {
  return SdenNetwork(
      topology::uniform_edge_network(std::move(g), per_switch, capacity));
}

// --- Bug 1: add_switch atomicity ------------------------------------

TEST(AddSwitchAtomicityTest, DuplicateLinkRollsBackTopology) {
  SdenNetwork net = make_net(topology::ring(4), 2);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(proto.place("atom-" + std::to_string(i), "v", i % 4).ok());
  }
  const std::size_t switches_before = net.switch_count();
  const std::size_t servers_before = net.server_count();
  const auto participants_before = ctrl.space().participants();
  const std::size_t edges_before =
      net.description().switches().edge_count();

  // A duplicate target in `links` fails inside the network mutation,
  // after the switch node (and the first copy of the link) exist.
  auto added = ctrl.add_switch(net, {0, 0}, 1);
  ASSERT_FALSE(added.ok());

  // Pre-fix: the half-joined switch and its dangling link leak.
  EXPECT_EQ(net.switch_count(), switches_before);
  EXPECT_EQ(net.server_count(), servers_before);
  EXPECT_EQ(net.description().switches().edge_count(), edges_before);
  EXPECT_EQ(ctrl.space().participants(), participants_before);

  // The data plane still works and no item was lost.
  for (int i = 0; i < 40; ++i) {
    auto r = proto.retrieve("atom-" + std::to_string(i), i % 4);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << i;
  }
}

TEST(AddSwitchAtomicityTest, MigrationFailureRollsBackAndKeepsItems) {
  SdenNetwork net = make_net(topology::ring(5), 2);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(proto.place("mig-" + std::to_string(i), "v", i % 5).ok());
  }
  const auto loads_before = net.server_loads();
  const std::size_t switches_before = net.switch_count();
  const std::size_t servers_before = net.server_count();

  // The joining switch's servers have capacity 1 each; the migration
  // toward the new home needs far more (the same join with unbounded
  // capacity moves dozens of items — see DynamicsTest), so migration
  // fails mid-way and the whole join must unwind.
  auto added = ctrl.add_switch(net, {0, 2}, 2, /*capacity=*/1);
  ASSERT_FALSE(added.ok());

  EXPECT_EQ(net.switch_count(), switches_before);
  EXPECT_EQ(net.server_count(), servers_before);
  // Pre-fix: erase-then-store migration destroys items when a store
  // fails and the half-migrated state is kept. Post-fix every item is
  // exactly where it started.
  EXPECT_EQ(net.server_loads(), loads_before);
  for (int i = 0; i < 200; ++i) {
    auto r = proto.retrieve("mig-" + std::to_string(i), i % 5);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << i;
  }
}

// --- Bug 4: remove_switch atomicity ---------------------------------

TEST(RemoveSwitchAtomicityTest, FailedReplacementRollsBackAndKeepsItems) {
  // The leaving switch 2 holds 20 items; the other four servers have 3
  // free slots each, so the re-placement moves some orphans before one
  // target fills up and the rest have nowhere to go.
  SdenNetwork net = make_net(topology::complete(5), 1, /*capacity=*/20);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  std::vector<std::size_t> per_server(net.server_count(), 0);
  std::vector<std::string> ids;
  for (int i = 0; ids.size() < 88 && i < 20000; ++i) {
    const std::string id = "leave-" + std::to_string(i);
    const auto p = ctrl.expected_placement(net, crypto::DataKey(id));
    ASSERT_TRUE(p.ok());
    const ServerId s = p.value().server;
    if (per_server[s] == (s == 2 ? 20u : 17u)) continue;
    ++per_server[s];
    ASSERT_TRUE(proto.place(id, "v-" + id, 0).ok());
    ids.push_back(id);
  }
  ASSERT_EQ(ids.size(), 88u);
  const auto loads_before = net.server_loads();
  const auto entries_before = net.table_entry_counts();
  const auto participants_before = ctrl.space().participants();
  const auto positions_before = ctrl.space().positions();
  const std::size_t edges_before =
      net.description().switches().edge_count();

  const Status removed = ctrl.remove_switch(net, 2);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, ErrorCode::kUnavailable);

  // Pre-fix: the leaving switch was torn down and the orphans not yet
  // re-placed were gone. Post-fix every item is where it started (the
  // orphans already moved come back) and the switch is back in the
  // topology, the space and the flow tables.
  EXPECT_EQ(net.server_loads(), loads_before);
  EXPECT_EQ(net.description().switches().edge_count(), edges_before);
  EXPECT_EQ(net.description().servers_at(2).size(), 1u);
  EXPECT_EQ(ctrl.space().participants(), participants_before);
  EXPECT_EQ(ctrl.space().positions(), positions_before);
  EXPECT_EQ(net.table_entry_counts(), entries_before);
  for (const std::string& id : ids) {
    auto r = proto.retrieve(id, 2);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << id;
    EXPECT_EQ(r.value().route.payload, "v-" + id);
  }
}

// --- Bug 6: rollback after a migration that already succeeded -------

std::vector<std::map<std::string, std::string>> stored_items(
    const SdenNetwork& net) {
  std::vector<std::map<std::string, std::string>> out(net.server_count());
  for (ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      out[s][id] = payload;
    }
  }
  return out;
}

TEST(RemoveSwitchAtomicityTest, ReplicationRepairFailureUndoesMigration) {
  // Switch kLeaving leaves a 3x3 grid with one server per switch
  // (server id == switch id) at replication factor 2. Three items have
  // their two copies on kLeaving and on `full`, the one capped server,
  // which they fill; the leave's migration moves their kLeaving copies
  // to unbounded servers. Item `lost` lacks its copy on `full` (its
  // placement found it full), so the replication repair that follows
  // the migration fails. Positions depend on the topology only, so an
  // unbounded probe deployment picks `full` and the ids.
  constexpr SwitchId kLeaving = 0;
  constexpr std::size_t kCap = 3;
  const ReplicationOptions repl{.factor = 2};
  SdenNetwork probe = make_net(topology::grid(3, 3), 1);
  Controller probe_ctrl;
  ASSERT_TRUE(probe_ctrl.initialize(probe).ok());
  ASSERT_TRUE(probe_ctrl.enable_replication(probe, repl).ok());
  auto homes_of = [&](const std::string& id) {
    return probe_ctrl.replica_homes(crypto::DataKey(id));
  };
  SwitchId full = kLeaving;
  std::vector<std::string> fillers;
  std::string lost;
  for (int i = 0; i < 20000 && (fillers.size() < kCap || lost.empty());
       ++i) {
    const std::string id = "repair-" + std::to_string(i);
    const std::vector<SwitchId> homes = homes_of(id);
    ASSERT_EQ(homes.size(), 2u);
    if (full == kLeaving && homes[0] == kLeaving) full = homes[1];
    if (full == kLeaving) continue;
    const bool pair = (homes[0] == kLeaving && homes[1] == full) ||
                      (homes[0] == full && homes[1] == kLeaving);
    if (pair && fillers.size() < kCap) {
      fillers.push_back(id);
    } else if (lost.empty() && homes[1] == full && homes[0] != kLeaving) {
      lost = id;
    }
  }
  ASSERT_EQ(fillers.size(), kCap);
  ASSERT_FALSE(lost.empty());

  topology::EdgeNetwork desc(topology::grid(3, 3));
  for (SwitchId sw = 0; sw < desc.switches().node_count(); ++sw) {
    ASSERT_TRUE(desc.attach_server(sw, sw == full ? kCap : 0).ok());
  }
  SdenNetwork net(desc);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  ASSERT_TRUE(ctrl.enable_replication(net, repl).ok());
  ASSERT_EQ(ctrl.space().positions(), probe_ctrl.space().positions());
  GredProtocol proto(net, ctrl);
  for (const std::string& id : fillers) {
    ASSERT_TRUE(proto.place(id, "v-" + id, 4).ok()) << id;
  }
  ASSERT_TRUE(net.server(full).at_capacity());
  // The primary copy lands; the replica copy finds `full` full.
  const auto placed = proto.place(lost, "v-" + lost, 4);
  ASSERT_FALSE(placed.ok());
  ASSERT_EQ(placed.error().code, ErrorCode::kUnavailable);

  const auto items_before = stored_items(net);
  const auto snap = capture_snapshot(ctrl, net);
  ASSERT_TRUE(snap.ok());

  const Status removed = ctrl.remove_switch(net, kLeaving);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, ErrorCode::kUnavailable);
  // The migration had moved the fillers' kLeaving copies before the
  // repair failed (the count of the last migration that applied).
  EXPECT_EQ(ctrl.last_migration_count(), kCap);

  // Every server holds exactly its pre-op items and payloads.
  EXPECT_EQ(stored_items(net), items_before);
  // The flow tables are those of a cold restore of the pre-op state.
  SdenNetwork cold(net.description());
  Controller cold_ctrl;
  ASSERT_TRUE(restore_snapshot(cold_ctrl, cold, snap.value()).ok());
  ASSERT_EQ(net.switch_count(), cold.switch_count());
  for (SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    const sden::Switch& got = net.const_switch_at(sw);
    const sden::Switch& want = cold.const_switch_at(sw);
    EXPECT_EQ(got.position().x, want.position().x) << sw;
    EXPECT_EQ(got.position().y, want.position().y) << sw;
    EXPECT_EQ(got.table().to_string(), want.table().to_string()) << sw;
  }
}

// --- Bug 3 root cause: rewrites must survive reinstalls -------------

TEST(RewritePreservationTest, ExtensionSurvivesLinkDynamics) {
  SdenNetwork net = make_net(topology::ring(4), 1, /*capacity=*/100);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  ASSERT_TRUE(ctrl.extend_range(net, 0).ok());
  const auto rewrite = net.switch_at(0).table().match_rewrite(0);
  ASSERT_TRUE(rewrite.has_value());

  // Any dynamics op reinstalls all switch state; pre-fix the reinstall
  // silently dropped the delegation.
  ASSERT_TRUE(ctrl.add_link(net, 0, 2).ok());
  auto after_add = net.switch_at(0).table().match_rewrite(0);
  ASSERT_TRUE(after_add.has_value());
  EXPECT_EQ(after_add->replacement, rewrite->replacement);
  EXPECT_EQ(after_add->via_switch, rewrite->via_switch);

  ASSERT_TRUE(ctrl.remove_link(net, 0, 2).ok());
  EXPECT_TRUE(net.switch_at(0).table().match_rewrite(0).has_value());
}

TEST(RewritePreservationTest, InvalidatedExtensionIsDroppedNotStale) {
  // Delegation from server 0 (switch 0) to a delegate on a neighbor
  // switch. When that delegate's switch leaves, the rewrite must go
  // away (not point at a detached server), and the delegated items
  // must migrate somewhere retrievable.
  SdenNetwork net = make_net(topology::complete(4), 1, /*capacity=*/100);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);

  ASSERT_TRUE(ctrl.extend_range(net, 0).ok());
  const auto rewrite = net.switch_at(0).table().match_rewrite(0);
  ASSERT_TRUE(rewrite.has_value());

  // Store a few items owned by server 0 — they land on the delegate.
  std::vector<std::string> owned;
  for (int i = 0; owned.size() < 3 && i < 3000; ++i) {
    const std::string id = "stale-" + std::to_string(i);
    const auto p = ctrl.expected_placement(net, crypto::DataKey(id));
    ASSERT_TRUE(p.ok());
    if (p.value().server == 0) {
      owned.push_back(id);
      ASSERT_TRUE(proto.place(id, "v", 1).ok());
    }
  }
  ASSERT_EQ(owned.size(), 3u);

  ASSERT_TRUE(ctrl.remove_switch(net, rewrite->via_switch).ok());
  EXPECT_FALSE(net.switch_at(0).table().match_rewrite(0).has_value());
  for (const std::string& id : owned) {
    auto r = proto.retrieve(id, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << id;
  }
}

// --- Bug 2: orphan re-placement must honor rewrites -----------------

TEST(RemoveSwitchOrphanTest, OrphansFollowActiveExtension) {
  // Two identical systems (the layout is deterministic). In the
  // reference run, remove a switch and record which orphans land on
  // server `home`. In the run under test, `home` has an active
  // extension when the switch leaves — those same orphans must land on
  // the delegate instead (pre-fix they were stored straight on `home`,
  // exactly the load the delegation had just moved away).
  constexpr SwitchId kVictim = 2;

  SdenNetwork ref_net = make_net(topology::complete(5), 1, /*cap=*/1000);
  Controller ref_ctrl;
  ASSERT_TRUE(ref_ctrl.initialize(ref_net).ok());
  GredProtocol ref_proto(ref_net, ref_ctrl);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(ref_proto.place("orph-" + std::to_string(i), "v", i % 5).ok());
  }
  const std::vector<std::string> victims = [&] {
    std::vector<std::string> out;
    for (ServerId s : ref_net.description().servers_at(kVictim)) {
      for (const auto& [id, payload] : ref_net.server(s).items()) {
        out.push_back(id);
      }
    }
    return out;
  }();
  ASSERT_FALSE(victims.empty());
  ASSERT_TRUE(ref_ctrl.remove_switch(ref_net, kVictim).ok());

  // `home` := the post-removal home of the first orphan. The reference
  // run (no extension anywhere) tells us where orphans go by default.
  const auto ref_placement =
      ref_ctrl.expected_placement(ref_net, crypto::DataKey(victims[0]));
  ASSERT_TRUE(ref_placement.ok());
  const ServerId home = ref_placement.value().server;
  std::vector<std::string> home_orphans;
  for (const std::string& id : victims) {
    const auto p = ref_ctrl.expected_placement(ref_net, crypto::DataKey(id));
    ASSERT_TRUE(p.ok());
    if (p.value().server == home) home_orphans.push_back(id);
  }
  ASSERT_FALSE(home_orphans.empty());

  // Run under test: same network, but `home` delegates before the
  // switch leaves.
  SdenNetwork net = make_net(topology::complete(5), 1, /*cap=*/1000);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(proto.place("orph-" + std::to_string(i), "v", i % 5).ok());
  }
  const std::size_t home_items_before = net.server(home).item_count();
  ASSERT_TRUE(ctrl.extend_range(net, home).ok());
  const auto rewrite = net.switch_at(net.server(home).info().attached_to)
                           .table()
                           .match_rewrite(home);
  ASSERT_TRUE(rewrite.has_value());
  // The delegate must survive the removal or the extension is
  // (correctly) dropped and the test would not exercise the bug.
  ASSERT_NE(rewrite->via_switch, kVictim);
  const ServerId delegate = rewrite->replacement;

  ASSERT_TRUE(ctrl.remove_switch(net, kVictim).ok());

  // The extension is still installed and every home-bound orphan went
  // to the delegate, not to `home` (pre-fix: straight onto `home`).
  // Post-removal migration may move items *off* home (regions shift),
  // but under an active extension it must never gain any.
  ASSERT_TRUE(net.switch_at(net.server(home).info().attached_to)
                  .table()
                  .match_rewrite(home)
                  .has_value());
  EXPECT_LE(net.server(home).item_count(), home_items_before);
  for (const std::string& id : home_orphans) {
    EXPECT_EQ(net.server(home).find(id), nullptr) << id;
    EXPECT_NE(net.server(delegate).find(id), nullptr) << id;
    auto r = proto.retrieve(id, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << id;
  }
}

// --- Planned-move primitive edges ---------------------------------

/// Ids owned by server `owner` (its expected placement), `count` of
/// them, drawn in a fixed order from `prefix`-<i>.
std::vector<std::string> owned_ids(const Controller& ctrl,
                                   const SdenNetwork& net, ServerId owner,
                                   const std::string& prefix,
                                   std::size_t count) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count && i < 20000; ++i) {
    const std::string id = prefix + std::to_string(i);
    const auto p = ctrl.expected_placement(net, crypto::DataKey(id));
    if (p.ok() && p.value().server == owner) out.push_back(id);
  }
  return out;
}

TEST(PlannedMoveTest, RetractThatOverfillsOwnerMovesNothing) {
  // Server 0 (capacity 5) keeps 3 items, then delegates; 4 more land on
  // the delegate. Pulling those 4 back needs 4 slots and the owner has
  // 2, so the retraction must fail without moving anything (it used to
  // move 2, fill the owner, and strand a partial pullback).
  topology::EdgeNetwork desc{topology::ring(4)};
  ASSERT_TRUE(desc.attach_server(0, 5).ok());
  for (SwitchId sw = 1; sw < 4; ++sw) {
    ASSERT_TRUE(desc.attach_server(sw, 100).ok());
  }
  SdenNetwork net{std::move(desc)};
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  const std::vector<std::string> ids = owned_ids(ctrl, net, 0, "pull-", 7);
  ASSERT_EQ(ids.size(), 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(proto.place(ids[i], "v", 1).ok());
  }
  ASSERT_TRUE(ctrl.extend_range(net, 0).ok());
  const ServerId delegate =
      net.switch_at(0).table().match_rewrite(0)->replacement;
  for (std::size_t i = 3; i < ids.size(); ++i) {
    ASSERT_TRUE(proto.place(ids[i], "v", 1).ok());
  }
  ASSERT_EQ(net.server(0).item_count(), 3u);
  ASSERT_EQ(net.server(delegate).item_count(), 4u);

  const Status retracted = ctrl.retract_range(net, 0);
  ASSERT_FALSE(retracted.ok());
  EXPECT_EQ(retracted.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(net.server(0).item_count(), 3u);
  EXPECT_EQ(net.server(delegate).item_count(), 4u);
  EXPECT_TRUE(net.switch_at(0).table().match_rewrite(0).has_value());
  for (const std::string& id : ids) {
    auto r = proto.retrieve(id, 2);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << id;
  }
}

TEST(PlannedMoveTest, HotItemSpreadStopsAtDelegateCapacity) {
  // Switch 0 runs hot; its neighbors' servers have room for 3 (switch
  // 1, the delegate) and 2 (switch 3). The digest-parity half of server
  // 0's 20 items is larger than 3, so exactly 3 move.
  topology::EdgeNetwork desc{topology::ring(4)};
  ASSERT_TRUE(desc.attach_server(0, 0).ok());
  ASSERT_TRUE(desc.attach_server(1, 3).ok());
  ASSERT_TRUE(desc.attach_server(2, 0).ok());
  ASSERT_TRUE(desc.attach_server(3, 2).ok());
  SdenNetwork net{std::move(desc)};
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  const std::vector<std::string> ids = owned_ids(ctrl, net, 0, "hot-", 20);
  ASSERT_EQ(ids.size(), 20u);
  std::size_t even = 0;
  for (const std::string& id : ids) {
    ASSERT_TRUE(proto.place(id, "v-" + id, 2).ok());
    if (crypto::DataKey(id).mod(2) == 0) ++even;
  }
  ASSERT_GT(even, 3u);

  obs::SwitchLoadTracker tracker(4);
  for (int i = 0; i < 200; ++i) tracker.record(0);
  tracker.record(2);
  tracker.roll_window();
  auto performed = ctrl.extend_for_load(net, tracker);
  ASSERT_TRUE(performed.ok());
  ASSERT_EQ(performed.value(), 1u);
  const auto rewrite = net.switch_at(0).table().match_rewrite(0);
  ASSERT_TRUE(rewrite.has_value());
  EXPECT_EQ(rewrite->replacement, 1u);
  EXPECT_EQ(net.server(1).item_count(), 3u);
  EXPECT_EQ(net.server(0).item_count(), 17u);
  for (const std::string& id : ids) {
    auto r = proto.retrieve(id, 3);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().route.found) << id;
    EXPECT_EQ(r.value().route.payload, "v-" + id);
  }
}

// --- Bug 7: a home held twice during a range extension --------------

/// A 3x3 grid with one server per switch (server id == switch id):
/// server `capped` (if any) holds at most `cap` items, every other is
/// unbounded.
SdenNetwork grid_net(ServerId capped = topology::kNoServer,
                     std::size_t cap = 0) {
  topology::EdgeNetwork desc(topology::grid(3, 3));
  for (SwitchId sw = 0; sw < desc.switches().node_count(); ++sw) {
    EXPECT_TRUE(desc.attach_server(sw, sw == capped ? cap : 0).ok());
  }
  return SdenNetwork(std::move(desc));
}

/// Whether a server that stores `a` and then `b`, and nothing else,
/// lists `a` first in its slot order (the reconcile pass's scan order).
bool slot_before(const std::string& a, const std::string& b) {
  sden::ItemStore store;
  store.upsert(a, {});
  store.upsert(b, {});
  return store.begin()->first == a;
}

constexpr ServerId kExtended = 4;

TEST(ExtensionOverwriteTest, FailedLinkRemovalRestoresOverwrittenCopy) {
  // Server 4 holds X and W and is full. After extend_range(4) the
  // overwrite of X and a new item Y land on the delegate, X first in its
  // slot order. Removing the handoff link ends the delegation: X's new
  // copy moves onto 4 over the old one, then Y finds 4 full and the op
  // rolls back.
  SdenNetwork net = grid_net(kExtended, 2);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  const std::vector<std::string> owned =
      owned_ids(ctrl, net, kExtended, "twice-", 40);
  ASSERT_EQ(owned.size(), 40u);
  // X and Y: the first owned pair in the delegate's slot order.
  std::size_t x_at = 0;
  std::size_t y_at = 1;
  while (!slot_before(owned[x_at], owned[y_at])) {
    if (++y_at == owned.size()) y_at = ++x_at + 1;
    ASSERT_LT(y_at, owned.size());
  }
  const std::string& x = owned[x_at];
  const std::string& y = owned[y_at];
  const std::string& w = owned[x_at > 0 ? 0 : y_at > 1 ? 1 : 2];
  ASSERT_TRUE(proto.place(x, "x-old", 0).ok());
  ASSERT_TRUE(proto.place(w, "w", 0).ok());
  ASSERT_TRUE(net.server(kExtended).at_capacity());
  ASSERT_TRUE(ctrl.extend_range(net, kExtended).ok());
  const auto rw =
      net.const_switch_at(kExtended).table().match_rewrite(kExtended);
  ASSERT_TRUE(rw.has_value());
  ASSERT_TRUE(proto.place(x, "x-new", 0).ok());
  ASSERT_TRUE(proto.place(y, "y", 0).ok());
  ASSERT_EQ(*net.server(rw->replacement).find(x), "x-new");
  ASSERT_EQ(net.server(rw->replacement).items().begin()->first, x);
  const auto items_before = stored_items(net);

  const Status removed = ctrl.remove_link(net, kExtended, rw->via_switch);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().message, "server h4 is at capacity");
  // Pre-fix: the undo of X's move erased the copy it had overwritten,
  // leaving server 4 without X.
  EXPECT_EQ(stored_items(net), items_before);
}

/// Ids for the leave of switch 4, picked on unbounded probes (positions
/// depend on the topology only): X and Z live on server 4, X first in
/// its slot order; the leave re-homes X to a server other than 1 (4's
/// delegate) and Z to `c`; F lives on c before and after.
struct LeaveIds {
  std::string x, z, f;
  ServerId c = topology::kNoServer;
};

void pick_leave_ids(LeaveIds& out) {
  SdenNetwork before = grid_net();
  Controller before_ctrl;
  ASSERT_TRUE(before_ctrl.initialize(before).ok());
  SdenNetwork after = grid_net();
  Controller after_ctrl;
  ASSERT_TRUE(after_ctrl.initialize(after).ok());
  ASSERT_TRUE(after_ctrl.remove_switch(after, kExtended).ok());
  const auto home = [](const Controller& c, const SdenNetwork& n,
                       const std::string& id) {
    return c.expected_placement(n, crypto::DataKey(id)).value().server;
  };
  // Candidates for X and Z: on 4 now, re-homed off the delegate.
  std::vector<std::string> moving;
  for (int i = 0; i < 20000 && moving.size() < 40; ++i) {
    const std::string id = "leave4-" + std::to_string(i);
    if (home(before_ctrl, before, id) == kExtended &&
        home(after_ctrl, after, id) != 1) {
      moving.push_back(id);
    }
  }
  for (std::size_t a = 0; a < moving.size() && out.z.empty(); ++a) {
    for (std::size_t b = a + 1; b < moving.size() && out.z.empty(); ++b) {
      const ServerId c = home(after_ctrl, after, moving[b]);
      if (c != home(after_ctrl, after, moving[a]) &&
          slot_before(moving[a], moving[b])) {
        out.x = moving[a];
        out.z = moving[b];
        out.c = c;
      }
    }
  }
  ASSERT_FALSE(out.z.empty());
  for (int i = 0; i < 20000 && out.f.empty(); ++i) {
    const std::string id = "leave4-" + std::to_string(i);
    if (home(before_ctrl, before, id) == out.c &&
        home(after_ctrl, after, id) == out.c) {
      out.f = id;
    }
  }
  ASSERT_FALSE(out.f.empty());
}

/// The leave fixture: server 4 holds X ("x-old") and Z, X first in its
/// slot order, and 4 delegates to server 1, which holds the overwrite
/// "x-new" of X. Server c holds F and, with `cap`, nothing more.
void build_leave(const LeaveIds& ids, std::size_t cap, SdenNetwork& net,
                 Controller& ctrl) {
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  ASSERT_TRUE(proto.place(ids.x, "x-old", 0).ok());
  ASSERT_TRUE(proto.place(ids.z, "z", 0).ok());
  ASSERT_TRUE(proto.place(ids.f, "f", 0).ok());
  ASSERT_EQ(net.server(ids.c).at_capacity(), cap != 0);
  ASSERT_TRUE(ctrl.extend_range(net, kExtended).ok());
  // The delegate sorts before 4, so a server-major scan meets its copy
  // of X first.
  ASSERT_EQ(net.const_switch_at(kExtended)
                .table()
                .match_rewrite(kExtended)
                ->replacement,
            1u);
  ASSERT_TRUE(proto.place(ids.x, "x-new", 0).ok());
  ASSERT_EQ(*net.server(1).find(ids.x), "x-new");
  ASSERT_EQ(*net.server(kExtended).find(ids.x), "x-old");
}

TEST(ExtensionOverwriteTest, FailedLeaveRestoresDelegateCopy) {
  LeaveIds ids;
  ASSERT_NO_FATAL_FAILURE(pick_leave_ids(ids));
  SdenNetwork net = grid_net(ids.c, 1);
  Controller ctrl;
  ASSERT_NO_FATAL_FAILURE(build_leave(ids, 1, net, ctrl));
  const auto items_before = stored_items(net);

  // Z's move onto the full server c fails after X's move.
  const Status removed = ctrl.remove_switch(net, kExtended);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, ErrorCode::kUnavailable);
  // Pre-fix: both copies of X moved onto one server, and the undo of the
  // first found nothing there, so the delegate got X back empty.
  EXPECT_EQ(stored_items(net), items_before);
}

TEST(ExtensionOverwriteTest, LeaveKeepsTheCopyReadsReturned) {
  LeaveIds ids;
  ASSERT_NO_FATAL_FAILURE(pick_leave_ids(ids));
  SdenNetwork net = grid_net();
  Controller ctrl;
  ASSERT_NO_FATAL_FAILURE(build_leave(ids, 0, net, ctrl));
  GredProtocol proto(net, ctrl);
  auto before = proto.retrieve(ids.x, 0);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().route.payload, "x-new");

  ASSERT_TRUE(ctrl.remove_switch(net, kExtended).ok());
  // Pre-fix: the home server's stale copy moved last and won.
  auto after = proto.retrieve(ids.x, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().route.found);
  EXPECT_EQ(after.value().route.payload, "x-new");
  EXPECT_TRUE(ctrl.validate_placement(net).ok());
}

/// Server 4 owns X ("x-old") and delegates to server 1, which takes the
/// overwrite "x-new", while server `also` delegates to 4. Removing the
/// link 1-4 ends 4's extension, and a read of X must still answer the
/// overwrite. `net`'s capacities steer `also`'s delegate onto 4.
void expect_overwrite_survives_link_removal(SdenNetwork net, ServerId also) {
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  const std::vector<std::string> owned =
      owned_ids(ctrl, net, kExtended, "chain-", 1);
  ASSERT_EQ(owned.size(), 1u);
  const std::string& x = owned[0];
  ASSERT_TRUE(proto.place(x, "x-old", 0).ok());
  ASSERT_TRUE(ctrl.extend_range(net, kExtended).ok());
  ASSERT_TRUE(ctrl.extend_range(net, also).ok());
  for (const auto& [from, to] :
       {std::pair{kExtended, ServerId{1}}, std::pair{also, kExtended}}) {
    const auto rw = net.const_switch_at(from).table().match_rewrite(from);
    ASSERT_TRUE(rw.has_value()) << from;
    ASSERT_EQ(rw->replacement, to) << from;
  }
  ASSERT_TRUE(proto.place(x, "x-new", 0).ok());
  ASSERT_EQ(*net.server(1).find(x), "x-new");
  ASSERT_EQ(*net.server(kExtended).find(x), "x-old");

  ASSERT_TRUE(ctrl.remove_link(net, kExtended, 1).ok());
  // Pre-fix: 4's stale copy counted as the one reads returned, because
  // 4 is a delegate too, and the overwrite on 1 was dropped.
  auto read = proto.retrieve(x, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().route.found);
  EXPECT_EQ(read.value().route.payload, "x-new");
  EXPECT_FALSE(net.server(1).contains(x));
  EXPECT_TRUE(ctrl.validate_placement(net).ok());
}

TEST(ExtensionOverwriteTest, ChainedExtensionKeepsTheCopyReadsReturned) {
  // 7's first neighbour is 4, so 7 delegates to 4 (C->B, B->D).
  expect_overwrite_survives_link_removal(grid_net(), 7);
}

TEST(ExtensionOverwriteTest, MutualExtensionKeepsTheCopyReadsReturned) {
  // 1's other neighbours, 0 and 2, have less room left than 4, so 1
  // delegates to 4 while 4 delegates to 1; the link removal ends both.
  topology::EdgeNetwork desc(topology::grid(3, 3));
  for (SwitchId sw = 0; sw < desc.switches().node_count(); ++sw) {
    ASSERT_TRUE(desc.attach_server(sw, sw == 0 || sw == 2 ? 8 : 0).ok());
  }
  expect_overwrite_survives_link_removal(SdenNetwork(std::move(desc)), 1);
}

// --- Bug 5: join position -------------------------------------------

TEST(JoinPositionTest, JoinerLandsInsideItsNeighboursHull) {
  Rng rng(0x6A01u);
  topology::WaxmanOptions opt;
  opt.node_count = 128;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  ASSERT_TRUE(topo.ok());
  SdenNetwork net = make_net(std::move(topo).value().graph, 1);
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());

  for (int join = 0; join < 8; ++join) {
    SCOPED_TRACE(join);
    // Like an edge deployment: next to a participant and to one 2-3
    // hops from it.
    const std::vector<SwitchId>& parts = ctrl.space().participants();
    const SwitchId a = parts[rng.next_below(parts.size())];
    SwitchId b = a;
    std::size_t seen = 0;
    for (const SwitchId t : parts) {
      const double d = ctrl.apsp().dist(a, t);
      if (d >= 2.0 && d <= 3.0 && rng.next_below(++seen) == 0) b = t;
    }
    ASSERT_NE(a, b);
    auto joined = ctrl.add_switch(net, {a, b}, /*server_count=*/1);
    ASSERT_TRUE(joined.ok()) << joined.error().to_string();

    const auto position_of = [&](SwitchId sw) {
      return ctrl.space().positions()[ctrl.space().index_of(sw)];
    };
    const geometry::Point2D p = position_of(joined.value());
    const geometry::Point2D pa = position_of(a);
    const geometry::Point2D pb = position_of(b);
    EXPECT_GT(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
    EXPECT_GT(p.y, 0.0);
    EXPECT_LT(p.y, 1.0);
    // Its participant neighbours are a and b, whose hull is the segment
    // between them (up to a collision nudge).
    const geometry::Point2D ab = pb - pa;
    const double t = geometry::dot(p - pa, ab) / geometry::dot(ab, ab);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
    EXPECT_LT(geometry::norm(p - (pa + ab * t)), 1e-6);
  }
}

}  // namespace
}  // namespace gred::core
