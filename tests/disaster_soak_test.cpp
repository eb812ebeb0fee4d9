// Disaster soak: a correlated region kill replayed mid-soak against a
// live system with k = 2 region-diverse replication, riding alongside
// topology churn and fallback retrievals. The end-to-end statement of
// the disaster-tolerance layer:
//   - a region kill aligned with the replication regions loses ZERO
//     items at k = 2 (every item keeps a copy outside the dead box),
//   - every repair brings survivors straight back to the factor,
//   - the controller writes exactly one dynamics event-log entry per
//     repair operation (one remove-switch per dead region member),
//   - recovery accounting agrees: nothing lost, nothing left degraded.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_session.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "topology/presets.hpp"

namespace gred {
namespace {

using core::GredSystem;
using core::ReplicationOptions;
using core::RetryPolicy;
using topology::SwitchId;

class DisasterSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::event_log().clear();
  }
  void TearDown() override { obs::set_enabled(false); }
};

std::size_t holder_count(const GredSystem& sys, const std::string& id) {
  std::size_t n = 0;
  const auto& net = sys.network();
  for (topology::ServerId s = 0; s < net.server_count(); ++s) {
    if (net.server(s).contains(id)) ++n;
  }
  return n;
}

TEST_F(DisasterSoakTest, RegionKillMidSoakLosesNothingAtK2) {
  auto built = GredSystem::create(
      topology::uniform_edge_network(topology::grid(5, 5), 2));
  ASSERT_TRUE(built.ok()) << built.error().to_string();
  GredSystem sys = std::move(built).value();
  ReplicationOptions ropts;
  ropts.factor = 2;
  ropts.region_diverse = true;
  ropts.region_grid = 2;
  ASSERT_TRUE(sys.enable_replication(ropts).ok());

  Rng rng(0xD15A57E8u);
  std::vector<std::string> live;
  int next_id = 0;
  auto alive_ingress = [&](const sden::FaultState& faults) -> SwitchId {
    const auto& parts = sys.controller().space().participants();
    for (;;) {
      const SwitchId s = parts[rng.next_below(parts.size())];
      if (!faults.switch_is_down(s)) return s;
    }
  };
  for (int i = 0; i < 100; ++i) {
    const std::string id = "soak-" + std::to_string(next_id++);
    ASSERT_TRUE(sys.place(id, "payload-" + id, alive_ingress({})).ok());
    live.push_back(id);
  }

  // One correlated box kill aligned with the replication regions, plus
  // a partition riding along. The kill box IS a replication region, so
  // region-diverse k = 2 guarantees a survivor copy for every item.
  fault::DisasterPlanOptions dopt;
  dopt.region_kills = 1;
  dopt.partitions = 1;
  dopt.region_shape = fault::RegionShape::kBox;
  dopt.box_grid = ropts.region_grid;
  dopt.schedule_length = 200;
  dopt.stale_window = 6;
  dopt.partition_length = 12;
  dopt.seed = 20260809;
  auto plan = fault::FaultPlan::generate_disasters(
      sys.network().description(), sys.controller().space().participants(),
      sys.controller().space().positions(), dopt);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_EQ(plan.value().count(fault::FaultKind::kRegionKill), 1u);
  std::size_t kill_members = 0;
  for (const auto& e : plan.value().events()) {
    if (e.kind == fault::FaultKind::kRegionKill) kill_members = e.members.size();
  }
  ASSERT_GE(kill_members, 2u) << "kill box too small to be correlated";

  std::set<std::size_t> deadlines;
  for (const auto& e : plan.value().events()) {
    deadlines.insert(e.at_event);
    deadlines.insert(e.repair_at);
  }

  fault::FaultSession session(sys, std::move(plan).value());
  session.enable_recovery_tracking();

  const std::size_t log_before = obs::event_log().size();

  RetryPolicy policy;
  policy.max_attempts = 6;
  std::size_t step = 0;
  for (const std::size_t t : deadlines) {
    const std::size_t repaired_before = session.repaired();
    auto advanced = session.advance(t);
    ASSERT_TRUE(advanced.ok())
        << "t=" << t << ": " << advanced.error().to_string();
    // Every copy where the data plane stores and reads it, and every
    // replica home held, after each repair.
    if (session.repaired() > repaired_before) {
      const check::CheckReport placement =
          sys.controller().validate_placement(sys.network());
      EXPECT_TRUE(placement.ok()) << "t=" << t << ": "
                                  << placement.to_string();
    }

    // Churn rides along with the disasters.
    if (step % 2 == 1) {
      (void)sys.add_link(alive_ingress(session.state()),
                         alive_ingress(session.state()));
    }
    if (step == 2) {
      const SwitchId u = alive_ingress(session.state());
      const SwitchId v = alive_ingress(session.state());
      (void)sys.add_switch({u, v}, /*servers=*/2);
    }
    const std::string id = "soak-" + std::to_string(next_id++);
    auto placed =
        sys.place(id, "payload-" + id, alive_ingress(session.state()));
    if (placed.ok()) {
      live.push_back(id);
    } else {
      EXPECT_NE(placed.error().code, ErrorCode::kInternal)
          << placed.error().to_string();
    }

    // Fallback retrievals of random live items stay classified.
    for (int i = 0; i < 8; ++i) {
      const std::string& rid = live[rng.next_below(live.size())];
      auto out = sys.retrieve_with_fallback(
          rid, alive_ingress(session.state()), policy);
      ASSERT_TRUE(out.ok()) << "t=" << t << " " << rid << ": "
                            << out.error().to_string();
      if (!out.value().found) {
        EXPECT_NE(out.value().final_status.error().code,
                  ErrorCode::kInternal)
            << "t=" << t << " " << rid;
      }
    }
    ++step;
  }

  auto finished = session.finish();
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.state().any());

  // Region-diverse k = 2 vs a one-region kill: zero lost items, and
  // the repair restored the factor for every single one.
  EXPECT_EQ(session.items_lost(), 0u);
  for (const std::string& id : live) {
    EXPECT_EQ(holder_count(sys, id), 2u) << "lost or degraded " << id;
  }
  // Whatever went unavailable came back (the partition window may have
  // isolated items transiently; the heal restored reachability).
  for (const auto& [id, rec] : session.recovery()) {
    EXPECT_FALSE(rec.lost) << id;
    EXPECT_FALSE(rec.degraded) << id;
  }

  // Exactly one dynamics event-log entry per controller repair: one
  // remove-switch per dead region member (the partition heals with no
  // controller op). Churn entries are accounted separately.
  std::size_t removals = 0;
  std::size_t churn_adds = 0;
  for (const auto& ev : obs::event_log().snapshot()) {
    if (ev.seq < log_before) continue;
    if (ev.kind == obs::EventKind::kRemoveSwitch) {
      EXPECT_TRUE(ev.ok) << "repair failed: " << ev.status;
      ++removals;
    } else {
      ++churn_adds;
    }
  }
  EXPECT_EQ(removals, kill_members);
  EXPECT_GT(churn_adds, 0u);
}

}  // namespace
}  // namespace gred
