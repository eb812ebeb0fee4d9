// Switch-plane simulator: flow tables, the switch pipeline (Algorithm 2
// plus virtual-link relaying and range-extension rewrites), server
// nodes, and network packet walks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sden/flow_table.hpp"
#include "sden/network.hpp"
#include "sden/packet.hpp"
#include "sden/server_node.hpp"
#include "sden/switch.hpp"
#include "topology/presets.hpp"

namespace gred::sden {
namespace {

using geometry::Point2D;

// ---------- FlowTable ----------

TEST(FlowTableTest, NeighborInsertAndReplace) {
  FlowTable t;
  t.add_neighbor({1, {0.1, 0.2}, true, 1});
  t.add_neighbor({2, {0.3, 0.4}, false, 1});
  EXPECT_EQ(t.neighbors().size(), 2u);
  // Re-adding the same neighbor replaces, not duplicates.
  t.add_neighbor({1, {0.9, 0.9}, true, 1});
  EXPECT_EQ(t.neighbors().size(), 2u);
  EXPECT_DOUBLE_EQ(t.neighbors()[0].position.x, 0.9);
}

TEST(FlowTableTest, RelayMatchByDest) {
  FlowTable t;
  t.add_relay({0, 0, 5, 9});
  t.add_relay({1, 2, 6, 8});
  auto m = t.match_relay(8);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->succ, 6u);
  EXPECT_FALSE(t.match_relay(77).has_value());
}

TEST(FlowTableTest, RelayReplaceSameSourDest) {
  FlowTable t;
  t.add_relay({0, 1, 2, 9});
  t.add_relay({0, 1, 3, 9});  // same (sour, dest): replaced
  EXPECT_EQ(t.relays().size(), 1u);
  EXPECT_EQ(t.match_relay(9)->succ, 3u);
}

TEST(FlowTableTest, RewriteLifecycle) {
  FlowTable t;
  t.add_rewrite({4, 7, 2});
  ASSERT_TRUE(t.match_rewrite(4).has_value());
  EXPECT_EQ(t.match_rewrite(4)->replacement, 7u);
  EXPECT_FALSE(t.match_rewrite(7).has_value());
  t.remove_rewrite(4);
  EXPECT_FALSE(t.match_rewrite(4).has_value());
  t.remove_rewrite(4);  // idempotent
}

TEST(FlowTableTest, EntryCountAndClear) {
  FlowTable t;
  t.add_neighbor({1, {0, 0}, true, 1});
  t.add_relay({0, 0, 1, 2});
  t.add_rewrite({0, 1, 2});
  EXPECT_EQ(t.entry_count(), 3u);
  t.clear();
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(FlowTableTest, ToStringListsEverything) {
  FlowTable t;
  t.add_neighbor({3, {0.25, 0.75}, true, 3});
  t.add_neighbor({9, {0.5, 0.5}, false, 4});
  t.add_relay({1, 2, 5, 9});
  t.add_rewrite({7, 8, 2});
  const std::string dump = t.to_string();
  EXPECT_NE(dump.find("sw3"), std::string::npos);
  EXPECT_NE(dump.find("[physical]"), std::string::npos);
  EXPECT_NE(dump.find("[virtual link]"), std::string::npos);
  EXPECT_NE(dump.find("sour=1"), std::string::npos);
  EXPECT_NE(dump.find("h7 -> h8 via sw2"), std::string::npos);
}

// ---------- Switch pipeline ----------

/// A hand-wired 3-switch line: s0(0.1,0.5) - s1(0.5,0.5) - s2(0.9,0.5),
/// where s0 and s2 are DT neighbors over the virtual link through s1.
struct LineFixture {
  Switch s0{0}, s1{1}, s2{2};

  LineFixture() {
    s0.set_position({0.1, 0.5});
    s1.set_position({0.5, 0.5});
    s2.set_position({0.9, 0.5});
    s0.set_local_servers({0});
    s1.set_local_servers({1});
    s2.set_local_servers({2});

    s0.table().add_neighbor({1, {0.5, 0.5}, true, 1});
    s0.table().add_neighbor({2, {0.9, 0.5}, false, 1});  // virtual link
    s1.table().add_neighbor({0, {0.1, 0.5}, true, 0});
    s1.table().add_neighbor({2, {0.9, 0.5}, true, 2});
    s2.table().add_neighbor({1, {0.5, 0.5}, true, 1});
    s2.table().add_neighbor({0, {0.1, 0.5}, false, 1});  // virtual link
    s1.table().add_relay({0, 0, 2, 2});
    s1.table().add_relay({2, 2, 0, 0});
  }

  static Packet packet_to(const Point2D& target,
                          PacketType type = PacketType::kPlacement) {
    Packet p;
    p.type = type;
    p.data_id = "test-item";
    p.target = target;
    return p;
  }
};

TEST(SwitchTest, DeliversLocallyWhenClosest) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.45, 0.5});
  const Decision d = f.s1.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  ASSERT_EQ(d.targets.size(), 1u);
  EXPECT_EQ(d.targets[0].server, 1u);
  EXPECT_EQ(d.targets[0].via, 1u);
}

TEST(SwitchTest, ForwardsToPhysicalNeighbor) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = f.s0.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 1u);
  EXPECT_FALSE(p.on_virtual_link());
}

TEST(SwitchTest, EntersVirtualLinkForMultiHopNeighbor) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.95, 0.5});
  const Decision d = f.s0.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 1u);  // first hop of the virtual link
  EXPECT_TRUE(p.on_virtual_link());
  EXPECT_EQ(p.vlink_dest, 2u);
  EXPECT_EQ(p.vlink_sour, 0u);
}

TEST(SwitchTest, RelaysAlongVirtualLink) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.95, 0.5});
  p.vlink_dest = 2;
  p.vlink_sour = 0;
  const Decision d = f.s1.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 2u);
  EXPECT_TRUE(p.on_virtual_link());  // still traversing
}

TEST(SwitchTest, VirtualLinkEndpointResumesGreedy) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.95, 0.5});
  p.vlink_dest = 2;
  p.vlink_sour = 0;
  const Decision d = f.s2.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  EXPECT_FALSE(p.on_virtual_link());  // cleared at the endpoint
  EXPECT_EQ(d.targets[0].server, 2u);
}

TEST(SwitchTest, DropsWhenRelayEntryMissing) {
  LineFixture f;
  Packet p = LineFixture::packet_to({0.95, 0.5});
  p.vlink_dest = 7;  // no relay entry for switch 7
  const Decision d = f.s1.process(p);
  EXPECT_EQ(d.kind, Decision::Kind::kDrop);
  EXPECT_NE(d.drop_reason, nullptr);
}

TEST(SwitchTest, TransitSwitchRelaysVirtualLink) {
  // A server-less transit switch has no position (Section IV-C), yet it
  // relays the virtual links that cross it, header untouched.
  Switch transit(9);
  transit.table().add_relay({1, 2, 3, 4});
  Packet p = LineFixture::packet_to({0.3, 0.3});
  p.vlink_dest = 4;
  p.vlink_sour = 1;
  const Decision d = transit.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 3u);
  EXPECT_EQ(p.vlink_dest, 4u);
  EXPECT_EQ(p.vlink_sour, 1u);
}

TEST(SwitchTest, NonParticipantDropsGreedyPackets) {
  Switch transit(5);  // never given a position
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = transit.process(p);
  EXPECT_EQ(d.kind, Decision::Kind::kDrop);
}

TEST(SwitchTest, TerminalWithoutServersDrops) {
  Switch s(0);
  s.set_position({0.5, 0.5});
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = s.process(p);
  EXPECT_EQ(d.kind, Decision::Kind::kDrop);
}

TEST(SwitchTest, ServerChoiceFollowsHashMod) {
  Switch s(0);
  s.set_position({0.5, 0.5});
  s.set_local_servers({10, 11, 12});
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  const std::size_t idx = crypto::DataKey("test-item").mod(3);
  EXPECT_EQ(d.targets[0].server, 10u + idx);
}

TEST(SwitchTest, PlacementRewriteDivertsToDelegate) {
  Switch s(0);
  s.set_position({0.5, 0.5});
  s.set_local_servers({10});
  s.table().add_rewrite({10, 42, 3});
  Packet p = LineFixture::packet_to({0.5, 0.5}, PacketType::kPlacement);
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  ASSERT_EQ(d.targets.size(), 1u);
  EXPECT_EQ(d.targets[0].server, 42u);
  EXPECT_EQ(d.targets[0].via, 3u);
}

TEST(SwitchTest, RetrievalRewriteQueriesBothServers) {
  Switch s(0);
  s.set_position({0.5, 0.5});
  s.set_local_servers({10});
  s.table().add_rewrite({10, 42, 3});
  Packet p = LineFixture::packet_to({0.5, 0.5}, PacketType::kRetrieval);
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  ASSERT_EQ(d.targets.size(), 2u);
  EXPECT_EQ(d.targets[0].server, 10u);
  EXPECT_EQ(d.targets[0].via, 0u);
  EXPECT_EQ(d.targets[1].server, 42u);
  EXPECT_EQ(d.targets[1].via, 3u);
}

TEST(SwitchTest, RemovalRewriteAddressesBothServers) {
  // A removal is routed like a retrieval (Section V-C): under a rewrite
  // it must reach the original and the delegate, since either may hold
  // the item.
  Switch s(0);
  s.set_position({0.5, 0.5});
  s.set_local_servers({10});
  s.table().add_rewrite({10, 42, 3});
  Packet p = LineFixture::packet_to({0.5, 0.5}, PacketType::kRemoval);
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kDeliver);
  ASSERT_EQ(d.targets.size(), 2u);
  EXPECT_EQ(d.targets[0].server, 10u);
  EXPECT_EQ(d.targets[0].via, 0u);
  EXPECT_EQ(d.targets[1].server, 42u);
  EXPECT_EQ(d.targets[1].via, 3u);
}

TEST(SwitchTest, TieBrokenByPositionRank) {
  // Two neighbors exactly equidistant from the target; the pipeline
  // must deterministically pick the (x, y)-smaller one.
  Switch s(0);
  s.set_position({0.5, 0.9});
  s.set_local_servers({0});
  s.table().add_neighbor({1, {0.4, 0.5}, true, 1});
  s.table().add_neighbor({2, {0.6, 0.5}, true, 2});
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 1u);  // position (0.4, .5) < (0.6, .5)
}

TEST(SwitchTest, TieBrokenByPositionRankInReverseInstallOrder) {
  // The candidate scan runs in installation order; the (x, y) rank
  // must still decide the tie when the larger position comes first.
  Switch s(0);
  s.set_position({0.5, 0.9});
  s.set_local_servers({0});
  s.table().add_neighbor({2, {0.6, 0.5}, true, 2});
  s.table().add_neighbor({1, {0.4, 0.5}, true, 1});
  Packet p = LineFixture::packet_to({0.5, 0.5});
  const Decision d = s.process(p);
  ASSERT_EQ(d.kind, Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, 1u);
}

// ---------- ServerNode ----------

TEST(ServerNodeTest, StoreFetchErase) {
  topology::EdgeServer info;
  info.id = 0;
  info.name = "h0";
  ServerNode node(info);
  EXPECT_TRUE(node.store("a", "payload-a").ok());
  EXPECT_TRUE(node.contains("a"));
  EXPECT_EQ(node.fetch("a").value(), "payload-a");
  EXPECT_FALSE(node.fetch("b").has_value());
  EXPECT_TRUE(node.erase("a"));
  EXPECT_FALSE(node.erase("a"));
  EXPECT_EQ(node.item_count(), 0u);
}

TEST(ServerNodeTest, CapacityEnforced) {
  topology::EdgeServer info;
  info.capacity = 2;
  ServerNode node(info);
  EXPECT_TRUE(node.store("a", "1").ok());
  EXPECT_TRUE(node.store("b", "2").ok());
  EXPECT_TRUE(node.at_capacity());
  EXPECT_EQ(node.remaining_capacity(), 0u);
  const Status s = node.store("c", "3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kUnavailable);
  // Overwrite of an existing key is allowed at capacity.
  EXPECT_TRUE(node.store("a", "new").ok());
  EXPECT_EQ(node.fetch("a").value(), "new");
}

TEST(ServerNodeTest, UnboundedCapacity) {
  topology::EdgeServer info;  // capacity 0 = unbounded
  ServerNode node(info);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(node.store("k" + std::to_string(i), "v").ok());
  }
  EXPECT_FALSE(node.at_capacity());
}

TEST(ServerNodeTest, Counters) {
  topology::EdgeServer info;
  ServerNode node(info);
  (void)node.store("a", "1");
  (void)node.store("b", "2");
  node.note_retrieval();
  EXPECT_EQ(node.retrievals_served(), 1u);
}

// ---------- SdenNetwork walks ----------

/// A 3-switch line network with 1 server each, tables hand-installed
/// exactly like LineFixture.
SdenNetwork make_line_network() {
  topology::EdgeNetwork desc =
      topology::uniform_edge_network(topology::line(3), 1);
  SdenNetwork net(std::move(desc));
  const Point2D pos[3] = {{0.1, 0.5}, {0.5, 0.5}, {0.9, 0.5}};
  for (SwitchId i = 0; i < 3; ++i) {
    net.switch_at(i).set_position(pos[i]);
    net.switch_at(i).set_local_servers(net.description().servers_at(i));
  }
  net.switch_at(0).table().add_neighbor({1, pos[1], true, 1});
  net.switch_at(0).table().add_neighbor({2, pos[2], false, 1});
  net.switch_at(1).table().add_neighbor({0, pos[0], true, 0});
  net.switch_at(1).table().add_neighbor({2, pos[2], true, 2});
  net.switch_at(2).table().add_neighbor({1, pos[1], true, 1});
  net.switch_at(2).table().add_neighbor({0, pos[0], false, 1});
  net.switch_at(1).table().add_relay({0, 0, 2, 2});
  net.switch_at(1).table().add_relay({2, 2, 0, 0});
  return net;
}

Packet make_packet(PacketType type, const std::string& id,
                   const Point2D& target, std::string payload = {}) {
  Packet p;
  p.type = type;
  p.data_id = id;
  p.target = target;
  p.payload = std::move(payload);
  return p;
}

TEST(SdenNetworkTest, PlacementWalksAndStores) {
  SdenNetwork net = make_line_network();
  const RouteResult r = net.inject(
      make_packet(PacketType::kPlacement, "k", {0.88, 0.5}, "v"), 0);
  ASSERT_TRUE(r.status.ok()) << r.status.error().to_string();
  EXPECT_EQ(r.switch_path, (std::vector<SwitchId>{0, 1, 2}));
  EXPECT_EQ(r.hop_count(), 2u);
  ASSERT_EQ(r.delivered_to.size(), 1u);
  EXPECT_EQ(r.delivered_to[0], 2u);
  EXPECT_TRUE(net.server(2).contains("k"));
}

TEST(SdenNetworkTest, RetrievalFindsStoredData) {
  SdenNetwork net = make_line_network();
  ASSERT_TRUE(net
                  .inject(make_packet(PacketType::kPlacement, "k",
                                      {0.88, 0.5}, "v"),
                          1)
                  .status.ok());
  const RouteResult r =
      net.inject(make_packet(PacketType::kRetrieval, "k", {0.88, 0.5}), 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.responder, 2u);
  EXPECT_EQ(r.payload, "v");
  EXPECT_EQ(net.server(2).retrievals_served(), 1u);
}

TEST(SdenNetworkTest, RetrievalOfMissingDataNotFound) {
  SdenNetwork net = make_line_network();
  const RouteResult r = net.inject(
      make_packet(PacketType::kRetrieval, "ghost", {0.88, 0.5}), 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.responder, topology::kNoServer);
}

TEST(SdenNetworkTest, IngressOutOfRangeFails) {
  SdenNetwork net = make_line_network();
  const RouteResult r = net.inject(
      make_packet(PacketType::kPlacement, "k", {0.5, 0.5}), 99);
  EXPECT_FALSE(r.status.ok());
}

TEST(SdenNetworkTest, ForwardOverMissingLinkRejected) {
  SdenNetwork net = make_line_network();
  // Sabotage: claim switch 2 is a physical neighbor of switch 0.
  net.switch_at(0).table().add_neighbor({2, {0.9, 0.5}, true, 2});
  const RouteResult r = net.inject(
      make_packet(PacketType::kPlacement, "k", {0.88, 0.5}, "v"), 0);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
}

TEST(SdenNetworkTest, LoadsAndTableCounts) {
  SdenNetwork net = make_line_network();
  (void)net.inject(make_packet(PacketType::kPlacement, "a", {0.1, 0.5}, "1"),
                   0);
  (void)net.inject(make_packet(PacketType::kPlacement, "b", {0.9, 0.5}, "2"),
                   0);
  const auto loads = net.server_loads();
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_EQ(loads[0] + loads[1] + loads[2], 2u);
  const auto tables = net.table_entry_counts();
  EXPECT_EQ(tables[0], 2u);
  EXPECT_EQ(tables[1], 4u);  // 2 neighbors + 2 relays
}

TEST(SdenNetworkTest, RangeExtensionHandoffWalk) {
  SdenNetwork net = make_line_network();
  // Extend switch 2's server (id 2) to switch 1's server (id 1).
  net.switch_at(2).table().add_rewrite({2, 1, 1});
  const RouteResult place = net.inject(
      make_packet(PacketType::kPlacement, "k", {0.88, 0.5}, "v"), 2);
  ASSERT_TRUE(place.status.ok());
  EXPECT_EQ(place.delivered_to, (std::vector<ServerId>{1}));
  EXPECT_TRUE(net.server(1).contains("k"));
  EXPECT_FALSE(net.server(2).contains("k"));
  // The handoff crossed the 2-1 link.
  EXPECT_EQ(place.switch_path.back(), 1u);

  // Retrieval queries both and the delegate responds.
  const RouteResult get = net.inject(
      make_packet(PacketType::kRetrieval, "k", {0.88, 0.5}), 0);
  ASSERT_TRUE(get.status.ok());
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.responder, 1u);
  EXPECT_EQ(get.delivered_to.size(), 2u);
}

TEST(SdenNetworkTest, AddSwitchExtendsEverything) {
  SdenNetwork net = make_line_network();
  auto sw = net.add_switch({2});
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ(sw.value(), 3u);
  EXPECT_EQ(net.switch_count(), 4u);
  EXPECT_TRUE(net.description().switches().has_edge(2, 3));
  auto srv = net.attach_server(sw.value(), 100);
  ASSERT_TRUE(srv.ok());
  EXPECT_EQ(net.server(srv.value()).info().attached_to, 3u);
}

TEST(SdenNetworkTest, RemoveSwitchLinks) {
  SdenNetwork net = make_line_network();
  net.remove_switch_links(1);
  EXPECT_FALSE(net.description().switches().has_edge(0, 1));
  EXPECT_FALSE(net.description().switches().has_edge(1, 2));
  EXPECT_TRUE(net.description().servers_at(1).empty());
  EXPECT_FALSE(net.switch_at(1).dt_participant());
}

}  // namespace
}  // namespace gred::sden
