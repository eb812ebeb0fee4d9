// Churn soak: a fixed-seed random interleaving of every dynamics op
// (switch join/leave, link add/remove, range extend/retract) under
// live traffic. After every event the deep invariants must hold and
// every stored item must still be retrievable — the end-to-end
// statement of the dynamics correctness fixes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "sden/hot_key_cache.hpp"
#include "topology/presets.hpp"

namespace gred::core {
namespace {

using sden::SdenNetwork;
using topology::ServerId;
using topology::SwitchId;

class ChurnSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::event_log().clear();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::event_log().clear();
  }
};

TEST_F(ChurnSoakTest, RandomChurnPreservesInvariantsAndData) {
  SdenNetwork net(
      topology::uniform_edge_network(topology::grid(3, 4), 2));
  Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  GredProtocol proto(net, ctrl);
  // The hot-key cache rides along for the whole soak: every dynamics
  // event must invalidate conservatively, so cached and uncached
  // retrievals stay identical at every step.
  sden::HotKeyCache& cache = net.enable_hot_key_cache();
  Rng rng(0xC0FFEEu);

  std::vector<std::string> live;
  int next_id = 0;
  auto random_participant = [&]() -> SwitchId {
    const auto& parts = ctrl.space().participants();
    return parts[rng.next_below(parts.size())];
  };
  auto place_one = [&]() {
    const std::string id = "soak-" + std::to_string(next_id++);
    auto r = proto.place(id, "payload-" + id, random_participant());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    live.push_back(id);
  };
  // `verify` uses EXPECT so a violation reports the failing step; the
  // event loop bails on the first failure to keep the log readable.
  auto verify = [&](int step) {
    const auto graph_report =
        check::validate_graph(net.description().switches());
    EXPECT_TRUE(graph_report.ok())
        << "step " << step << ": " << graph_report.to_string();
    const auto table_report = check::validate_flow_tables(
        net, ctrl.space().participants(), ctrl.space().positions());
    EXPECT_TRUE(table_report.ok())
        << "step " << step << ": " << table_report.to_string();
    for (const std::string& id : live) {
      const SwitchId ingress = random_participant();
      auto r = proto.retrieve(id, ingress);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << id;
      EXPECT_TRUE(r.value().route.found)
          << "step " << step << ": lost " << id;
      // Differential: the repeat may be served from the cache; the
      // same retrieval with the cache off must agree bit-for-bit.
      auto cached = proto.retrieve(id, ingress);
      cache.set_enabled(false);
      auto plain = proto.retrieve(id, ingress);
      cache.set_enabled(true);
      ASSERT_TRUE(cached.ok() && plain.ok())
          << "step " << step << ": " << id;
      EXPECT_EQ(cached.value().route.found, plain.value().route.found)
          << "step " << step << ": " << id;
      EXPECT_EQ(cached.value().route.payload, plain.value().route.payload)
          << "step " << step << ": " << id;
      EXPECT_EQ(cached.value().route.responder,
                plain.value().route.responder)
          << "step " << step << ": " << id;
      if (::testing::Test::HasFailure()) return;
    }
  };

  for (int i = 0; i < 120; ++i) place_one();
  verify(-1);
  ASSERT_FALSE(::testing::Test::HasFailure());

  constexpr int kEvents = 24;
  std::size_t ops_attempted = 0;
  for (int step = 0; step < kEvents; ++step) {
    const std::uint64_t op = rng.next_below(6);
    Status status = Status::Ok();
    switch (op) {
      case 0: {  // switch join (sometimes with a degenerate link list)
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        auto joined = ctrl.add_switch(net, {u, v},
                                      /*server_count=*/2);
        if (!joined.ok()) status = joined.error();
        break;
      }
      case 1: {  // switch leave; may fail (disconnect pre-check)
        if (ctrl.space().participants().size() > 4) {
          status = ctrl.remove_switch(net, random_participant());
        } else {
          status = ctrl.add_link(net, random_participant(),
                                 random_participant());
        }
        break;
      }
      case 2:  // link add; may fail (exists / self-loop)
        status = ctrl.add_link(net, random_participant(),
                               random_participant());
        break;
      case 3:  // link remove; may fail (missing / would disconnect)
        status = ctrl.remove_link(net, random_participant(),
                                  random_participant());
        break;
      case 4:  // range extension; may fail (already active)
        status = ctrl.extend_range(
            net, static_cast<ServerId>(rng.next_below(net.server_count())));
        break;
      default:  // retraction; may fail (none active)
        status = ctrl.retract_range(
            net, static_cast<ServerId>(rng.next_below(net.server_count())));
        break;
    }
    if (status.ok()) {
      const check::CheckReport placement = ctrl.validate_placement(net);
      EXPECT_TRUE(placement.ok())
          << "step " << step << ": " << placement.to_string();
    }
    ++ops_attempted;

    // Traffic between events: a few new stores, one delete.
    place_one();
    place_one();
    if (!live.empty()) {
      const std::size_t victim = rng.next_below(live.size());
      auto r = proto.remove(live[victim], random_participant());
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().route.found) << live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    verify(step);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "invariants broke at step " << step;
  }

  // Audit trail: one dynamics event per attempted op, success or not.
  EXPECT_EQ(obs::event_log().size(), ops_attempted);

  // The cache actually served repeats during the soak (the repeat
  // retrieval in `verify` hits whenever no event intervened).
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace gred::core
