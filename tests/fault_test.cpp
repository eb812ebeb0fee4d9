// Unit tests of the fault-tolerance layer: k-nearest site queries,
// replica placement and repair on the controller, retry-with-fallback
// retrieval, and the deterministic fault plan / session machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_session.hpp"
#include "geometry/site_grid.hpp"
#include "sden/fault_state.hpp"
#include "topology/presets.hpp"

namespace gred {
namespace {

using core::GredSystem;
using core::ReplicationOptions;
using core::RetryPolicy;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanOptions;
using fault::FaultSession;
using topology::SwitchId;

// --- SiteGrid k-nearest ---

TEST(SiteGridNearestK, SingleNearestMatchesNearest) {
  Rng rng(41);
  std::vector<geometry::Point2D> sites;
  for (int i = 0; i < 64; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  geometry::SiteGrid grid(sites, geometry::Rect{});
  for (int q = 0; q < 200; ++q) {
    const geometry::Point2D p{rng.uniform(-0.2, 1.2),
                              rng.uniform(-0.2, 1.2)};
    const auto k1 = grid.nearest_k(p, 1);
    ASSERT_EQ(k1.size(), 1u);
    EXPECT_EQ(k1[0], grid.nearest(p));
  }
}

TEST(SiteGridNearestK, MatchesBruteForceOrder) {
  Rng rng(42);
  std::vector<geometry::Point2D> sites;
  for (int i = 0; i < 48; ++i) {
    sites.push_back({rng.next_double(), rng.next_double()});
  }
  geometry::SiteGrid grid(sites, geometry::Rect{});
  for (int q = 0; q < 100; ++q) {
    const geometry::Point2D p{rng.next_double(), rng.next_double()};
    const std::size_t k = 1 + q % 5;
    const auto got = grid.nearest_k(p, k);
    // Brute force under the grid's exact total order: distance, then
    // lexicographic position, then site index.
    std::vector<std::size_t> want(sites.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
    std::sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
      if (geometry::closer_to(p, sites[a], sites[b])) return true;
      if (geometry::closer_to(p, sites[b], sites[a])) return false;
      return a < b;
    });
    want.resize(std::min(k, want.size()));
    EXPECT_EQ(got, want) << "query " << q;
  }
}

TEST(SiteGridNearestK, ClampsToSiteCount) {
  std::vector<geometry::Point2D> sites{{0.1, 0.1}, {0.9, 0.9}};
  geometry::SiteGrid grid(sites, geometry::Rect{});
  const auto all = grid.nearest_k({0.0, 0.0}, 5);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], 0u);
  EXPECT_EQ(all[1], 1u);
  EXPECT_TRUE(grid.nearest_k({0.5, 0.5}, 0).empty());
}

// --- Controller replication ---

GredSystem make_system(std::size_t width, std::size_t height,
                       std::size_t servers_per_switch = 2) {
  auto built = GredSystem::create(topology::uniform_edge_network(
      topology::grid(width, height), servers_per_switch));
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

std::vector<topology::ServerId> holders(const GredSystem& sys,
                                        const std::string& id) {
  std::vector<topology::ServerId> out;
  const auto& net = sys.network();
  for (topology::ServerId s = 0; s < net.server_count(); ++s) {
    if (net.server(s).contains(id)) out.push_back(s);
  }
  return out;
}

TEST(Replication, ReplicaHomesStartAtPrimaryAndAreDistinct) {
  GredSystem sys = make_system(3, 4);
  ASSERT_TRUE(sys.enable_replication().ok());
  for (int i = 0; i < 20; ++i) {
    const crypto::DataKey key("homes-" + std::to_string(i));
    const auto homes = sys.controller().replica_homes(key);
    ASSERT_EQ(homes.size(), 2u);
    EXPECT_NE(homes[0], homes[1]);
    const crypto::SpacePoint pos = key.position();
    EXPECT_EQ(homes[0], sys.controller().home_switch({pos.x, pos.y}));
  }
}

TEST(Replication, PlaceStoresFactorCopiesAtReplicaTargets) {
  GredSystem sys = make_system(3, 4);
  ASSERT_TRUE(sys.enable_replication(ReplicationOptions{2}).ok());
  EXPECT_EQ(sys.controller().replication_factor(), 2u);
  for (int i = 0; i < 25; ++i) {
    const std::string id = "rep-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v", static_cast<SwitchId>(i % 12)).ok());
    std::vector<core::Controller::Placement> homes;
    ASSERT_TRUE(sys.controller()
                    .placements(sys.network(), crypto::DataKey(id), homes)
                    .ok());
    const auto held_by = holders(sys, id);
    EXPECT_EQ(held_by.size(), homes.size()) << id;
    for (const auto& home : homes) {
      EXPECT_TRUE(std::find(held_by.begin(), held_by.end(), home.target) !=
                  held_by.end())
          << id << " missing from server " << home.target;
    }
  }
}

TEST(Replication, EnableReplicationBackfillsExistingItems) {
  GredSystem sys = make_system(3, 4);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        sys.place("pre-" + std::to_string(i), "v", static_cast<SwitchId>(i % 12))
            .ok());
  }
  ASSERT_TRUE(sys.enable_replication().ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(holders(sys, "pre-" + std::to_string(i)).size(), 2u);
  }
}

TEST(Replication, EnableAfterExtensionKeepsFactorCopies) {
  // Items stored on a server before it delegates stay on it, and reads
  // query both it and its delegate, so that copy already holds the
  // primary home: raising the factor to 2 adds one copy, not two.
  GredSystem sys = make_system(3, 4);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(sys.place("ext-" + std::to_string(i), "v",
                          static_cast<SwitchId>(i % 12))
                    .ok());
  }
  const auto loads = sys.network().server_loads();
  const auto extended = static_cast<topology::ServerId>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  std::vector<std::string> on_extended;
  for (const auto& [id, payload] : sys.network().server(extended).items()) {
    on_extended.push_back(id);
  }
  ASSERT_FALSE(on_extended.empty());
  ASSERT_TRUE(sys.extend_range(extended).ok());
  ASSERT_TRUE(sys.enable_replication(ReplicationOptions{.factor = 2}).ok());
  for (const std::string& id : on_extended) {
    EXPECT_EQ(holders(sys, id).size(), 2u) << id;
  }
  EXPECT_TRUE(sys.controller().validate_placement(sys.network()).ok());
}

TEST(Replication, RemoveSwitchRestoresFactor) {
  GredSystem sys = make_system(4, 4);
  ASSERT_TRUE(sys.enable_replication().ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("dyn-" + std::to_string(i));
    ASSERT_TRUE(sys.place(ids.back(), "v", static_cast<SwitchId>(i % 16)).ok());
  }
  // Removing any switch loses its copies; the dynamics tail must bring
  // every item straight back to two holders.
  ASSERT_TRUE(sys.remove_switch(5).ok());
  for (const std::string& id : ids) {
    EXPECT_EQ(holders(sys, id).size(), 2u) << id;
  }
}

TEST(Replication, RetrieveWithFallbackSurvivesDeadPrimary) {
  GredSystem sys = make_system(3, 4);
  ASSERT_TRUE(sys.enable_replication().ok());
  const std::string id = "failover-item";
  ASSERT_TRUE(sys.place(id, "precious", 0).ok());
  const auto homes = sys.controller().replica_homes(crypto::DataKey(id));
  ASSERT_EQ(homes.size(), 2u);

  // Healthy network: the first attempt succeeds, nothing recovers.
  auto healthy = sys.retrieve_with_fallback(id, homes[1]);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value().found);
  EXPECT_EQ(healthy.value().attempts, 1u);
  EXPECT_FALSE(healthy.value().recovered);

  // Primary home crashes (stale tables still point at it): the first
  // attempt black-holes with kLinkDown, the fallback re-targets the
  // replica and recovers.
  sden::FaultState faults;
  faults.set_switch_down(homes[0], true);
  sys.network().set_fault_state(&faults);
  auto out = sys.retrieve_with_fallback(id, homes[1]);
  sys.network().set_fault_state(nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().found);
  EXPECT_TRUE(out.value().recovered);
  EXPECT_GE(out.value().fallbacks, 1u);
  EXPECT_GT(out.value().backoff_ms, 0.0);
  EXPECT_EQ(out.value().report.route.payload, "precious");
}

TEST(Replication, FallbackMissIsClassifiedNotFound) {
  GredSystem sys = make_system(3, 4);
  ASSERT_TRUE(sys.enable_replication().ok());
  RetryPolicy policy;
  auto out = sys.retrieve_with_fallback("never-stored", 3, policy);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().found);
  EXPECT_EQ(out.value().attempts, policy.max_attempts);
  EXPECT_EQ(out.value().final_status.error().code, ErrorCode::kNotFound);
}

// --- FaultPlan ---

TEST(FaultPlanTest, DeterministicForSeed) {
  const auto net = topology::uniform_edge_network(topology::grid(4, 4), 2);
  FaultPlanOptions opts;
  opts.event_count = 8;
  opts.seed = 7;
  auto a = FaultPlan::generate(net, opts);
  auto b = FaultPlan::generate(net, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto& ea = a.value().events();
  const auto& eb = b.value().events();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_FALSE(ea.empty());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].at_event, eb[i].at_event);
    EXPECT_EQ(ea[i].subject, eb[i].subject);
    EXPECT_EQ(ea[i].peer, eb[i].peer);
    EXPECT_EQ(ea[i].repair_at, eb[i].repair_at);
  }
  opts.seed = 8;
  auto c = FaultPlan::generate(net, opts);
  ASSERT_TRUE(c.ok());
  bool differs = c.value().events().size() != ea.size();
  for (std::size_t i = 0; !differs && i < ea.size(); ++i) {
    differs = c.value().events()[i].at_event != ea[i].at_event ||
              c.value().events()[i].subject != ea[i].subject;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same plan";
}

TEST(FaultPlanTest, EventsAreOrderedAndWellFormed) {
  const auto net = topology::uniform_edge_network(topology::grid(4, 4), 2);
  FaultPlanOptions opts;
  opts.event_count = 12;
  opts.stale_window = 6;
  opts.seed = 99;
  auto plan = FaultPlan::generate(net, opts);
  ASSERT_TRUE(plan.ok());
  std::size_t prev = 0;
  std::set<SwitchId> crashed;
  for (const auto& e : plan.value().events()) {
    EXPECT_GE(e.at_event, prev);
    prev = e.at_event;
    EXPECT_EQ(e.repair_at, e.at_event + opts.stale_window);
    EXPECT_LT(e.repair_at, opts.schedule_length);
    if (e.kind == FaultKind::kSwitchCrash) {
      EXPECT_LT(e.subject, net.switch_count());
      EXPECT_TRUE(crashed.insert(e.subject).second)
          << "switch " << e.subject << " crashed twice";
    } else {
      // Link events reference a real link and never touch a switch
      // that an earlier event crashed.
      EXPECT_TRUE(net.switches().has_edge(e.subject, e.peer));
      EXPECT_EQ(crashed.count(e.subject), 0u);
      EXPECT_EQ(crashed.count(e.peer), 0u);
      if (e.kind == FaultKind::kLinkFlaky) {
        EXPECT_EQ(e.drop_probability, opts.flaky_drop_probability);
      } else {
        EXPECT_EQ(e.drop_probability, 1.0);
      }
    }
  }
}

TEST(FaultPlanTest, RejectsDegenerateOptions) {
  const auto net = topology::uniform_edge_network(topology::grid(3, 3), 1);
  FaultPlanOptions opts;
  opts.schedule_length = 4;
  opts.stale_window = 4;
  EXPECT_FALSE(FaultPlan::generate(net, opts).ok());
  opts = {};
  opts.crash_weight = 0.0;
  opts.link_down_weight = 0.0;
  opts.flaky_weight = 0.0;
  EXPECT_FALSE(FaultPlan::generate(net, opts).ok());
  opts = {};
  opts.flaky_drop_probability = 0.0;
  EXPECT_FALSE(FaultPlan::generate(net, opts).ok());
}

// --- FaultSession ---

TEST(FaultSessionTest, InjectsThenRepairsAndEndsClean) {
  GredSystem sys = make_system(4, 4);
  ASSERT_TRUE(sys.enable_replication().ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back("sess-" + std::to_string(i));
    ASSERT_TRUE(sys.place(ids.back(), "v", static_cast<SwitchId>(i % 16)).ok());
  }

  FaultPlanOptions opts;
  opts.event_count = 6;
  opts.schedule_length = 120;
  opts.stale_window = 5;
  opts.seed = 3;
  auto plan = FaultPlan::generate(sys.network().description(), opts);
  ASSERT_TRUE(plan.ok());
  const std::size_t planned = plan.value().events().size();
  ASSERT_GT(planned, 0u);

  FaultSession session(sys, std::move(plan).value());
  EXPECT_EQ(sys.network().fault_state(), &session.state());

  // Advance to just past the first failure: it is injected (the data
  // plane sees it) but not yet repaired (the controller is stale).
  const std::size_t first_at = session.plan().events().front().at_event;
  auto step = session.advance(first_at);
  ASSERT_TRUE(step.ok());
  EXPECT_GE(session.injected(), 1u);
  EXPECT_EQ(session.repaired(), 0u);
  EXPECT_TRUE(session.state().any());

  auto rest = session.finish();
  ASSERT_TRUE(rest.ok()) << rest.error().to_string();
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.injected(), planned);
  EXPECT_EQ(session.repaired(), planned);
  // Every repair clears its data-plane fault: a finished session
  // leaves the network healthy.
  EXPECT_FALSE(session.state().any());

  // Replication repair ran after every topology change: any item that
  // still exists is back at the full factor.
  std::size_t lost = 0;
  for (const std::string& id : ids) {
    const auto held_by = holders(sys, id);
    if (held_by.empty()) {
      ++lost;
      continue;
    }
    EXPECT_EQ(held_by.size(), 2u) << id;
  }
  // k = 2 tolerates every single-failure window in this plan.
  EXPECT_EQ(lost, 0u);
}

// --- Bugfix regressions: hot-key cache vs. fault injection ---

// A cached answer must never serve data whose holder has crashed: the
// crash destroyed the copy, so serving from the cache masks the outage
// (and corrupts any recovery accounting built on real retrievals).
// Regression for the missing epoch bump on FaultSession::inject.
TEST(FaultSessionTest, CrashInjectionInvalidatesCachedAnswers) {
  GredSystem sys = make_system(4, 4);
  sys.network().enable_hot_key_cache();

  FaultPlanOptions opts;
  opts.event_count = 1;
  opts.schedule_length = 40;
  opts.stale_window = 5;
  opts.crash_weight = 1.0;
  opts.link_down_weight = 0.0;
  opts.flaky_weight = 0.0;
  opts.seed = 11;
  auto plan = FaultPlan::generate(sys.network().description(), opts);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().events().size(), 1u);
  ASSERT_EQ(plan.value().events()[0].kind, FaultKind::kSwitchCrash);
  const SwitchId doomed = plan.value().events()[0].subject;

  // An item homed at the doomed switch, warmed into the cache from a
  // healthy ingress.
  std::string victim;
  for (int i = 0; i < 400 && victim.empty(); ++i) {
    const std::string id = "cache-crash-" + std::to_string(i);
    const crypto::SpacePoint pos = crypto::DataKey(id).position();
    if (sys.controller().home_switch({pos.x, pos.y}) == doomed) victim = id;
  }
  ASSERT_FALSE(victim.empty());
  const SwitchId ingress = doomed == 0 ? 1 : 0;
  ASSERT_TRUE(sys.place(victim, "doomed-payload", ingress).ok());
  ASSERT_TRUE(sys.retrieve(victim, ingress).ok());  // learn-mode fill
  auto warm = sys.retrieve(victim, ingress);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().served_from_cache);

  FaultSession session(sys, std::move(plan).value());
  auto step = session.advance(session.plan().events()[0].at_event);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(session.injected(), 1u);
  ASSERT_EQ(session.repaired(), 0u);

  // The holder is down and its data is gone: the retrieval must fail
  // through real routing, never answer from the pre-crash cache.
  auto during = sys.retrieve(victim, ingress);
  EXPECT_FALSE(during.ok() && during.value().served_from_cache)
      << "cached answer served for a crashed holder";
  EXPECT_FALSE(during.ok());

  ASSERT_TRUE(session.finish().ok());
}

// --- Bugfix regression: flaky-link drops vs. retries ---

// The drop hash used to depend only on (seed, link, key digest), so a
// retry of the same packet along the same link hashed to the identical
// drop decision forever — a 50% flaky link became a 100% black hole
// for exactly the keys it first dropped, regardless of backoff. The
// attempt ordinal now salts the hash.
TEST(RetryFallback, FlakyLinkEventuallySucceeds) {
  auto built = GredSystem::create(
      topology::uniform_edge_network(topology::line(2), 1));
  ASSERT_TRUE(built.ok());
  GredSystem sys = std::move(built).value();

  // Items homed at switch 1, retrieved from ingress 0: every request
  // crosses the single (0, 1) link.
  std::vector<std::string> candidates;
  for (int i = 0; i < 200; ++i) {
    const std::string id = "flaky-" + std::to_string(i);
    const crypto::SpacePoint pos = crypto::DataKey(id).position();
    if (sys.controller().home_switch({pos.x, pos.y}) == 1) {
      ASSERT_TRUE(sys.place(id, "v-" + id, 0).ok());
      candidates.push_back(id);
    }
  }
  ASSERT_FALSE(candidates.empty());

  sden::FaultState faults;
  faults.seed = 77;
  faults.set_link_drop(0, 1, 0.5);
  sys.network().set_fault_state(&faults);

  // A key whose first attempt deterministically drops.
  std::string victim;
  for (const std::string& id : candidates) {
    if (!sys.retrieve(id, 0).ok()) {
      victim = id;
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "no key dropped on first attempt";

  RetryPolicy policy;
  policy.max_attempts = 20;
  auto out = sys.retrieve_with_fallback(victim, 0, policy);
  sys.network().set_fault_state(nullptr);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().found)
      << "every retry hashed to the same drop decision";
  EXPECT_GT(out.value().attempts, 1u);
  EXPECT_TRUE(out.value().recovered);
  EXPECT_EQ(out.value().report.route.payload, "v-" + victim);
}

// --- Region-diverse replication ---

TEST(RegionDiverseReplication, HomesLandInDistinctRegions) {
  GredSystem sys = make_system(5, 5);
  ReplicationOptions opts;
  opts.factor = 2;
  opts.region_diverse = true;
  opts.region_grid = 2;
  ASSERT_TRUE(sys.enable_replication(opts).ok());
  ASSERT_GE(sys.controller().alive_region_count(), 2u);
  for (int i = 0; i < 40; ++i) {
    const crypto::DataKey key("rd-" + std::to_string(i));
    const auto homes = sys.controller().replica_homes(key);
    ASSERT_EQ(homes.size(), 2u);
    // Primary unchanged: element 0 is still the true nearest home.
    const crypto::SpacePoint pos = key.position();
    EXPECT_EQ(homes[0], sys.controller().home_switch({pos.x, pos.y}));
    EXPECT_NE(sys.controller().region_of_participant(homes[0]),
              sys.controller().region_of_participant(homes[1]))
        << "replicas co-located in one region for key " << i;
  }
}

TEST(RegionDiverseReplication, FallsBackToNearestOrderWhenOneRegion) {
  GredSystem sys = make_system(4, 4);
  ReplicationOptions opts;
  opts.factor = 3;
  opts.region_diverse = true;
  opts.region_grid = 1;  // a single region: diversity is impossible
  ASSERT_TRUE(sys.enable_replication(opts).ok());
  EXPECT_EQ(sys.controller().alive_region_count(), 1u);
  for (int i = 0; i < 20; ++i) {
    const crypto::DataKey key("fb-" + std::to_string(i));
    const crypto::SpacePoint pos = key.position();
    const auto homes = sys.controller().replica_homes(key);
    const auto plain =
        sys.controller().space().nearest_participants({pos.x, pos.y}, 3);
    EXPECT_EQ(homes, plain);
  }
}

TEST(RegionDiverseReplication, InvariantHoldsAcrossChurn) {
  GredSystem sys = make_system(5, 5);
  ReplicationOptions opts;
  opts.factor = 2;
  opts.region_diverse = true;
  opts.region_grid = 2;
  ASSERT_TRUE(sys.enable_replication(opts).ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("churn-rd-" + std::to_string(i));
    ASSERT_TRUE(
        sys.place(ids.back(), "v", static_cast<SwitchId>(i % 25)).ok());
  }
  ASSERT_TRUE(sys.remove_switch(7).ok());
  auto added = sys.add_switch({3, 12}, /*servers=*/2);
  ASSERT_TRUE(added.ok());
  // Every dynamics repair re-derived placements through the filtered
  // replica_homes, so the two holders of every item still sit in two
  // distinct regions.
  for (const std::string& id : ids) {
    const auto held_by = holders(sys, id);
    ASSERT_EQ(held_by.size(), 2u) << id;
    std::set<std::size_t> regions;
    for (const auto server : held_by) {
      const auto sw = sys.network().description().server(server).attached_to;
      regions.insert(sys.controller().region_of_participant(sw));
    }
    EXPECT_EQ(regions.size(), 2u) << id;
  }
}

// --- Disaster plans ---

fault::DisasterPlanOptions disaster_options() {
  fault::DisasterPlanOptions d;
  d.region_kills = 1;
  d.partitions = 0;
  d.region_shape = fault::RegionShape::kBox;
  d.box_grid = 2;
  d.schedule_length = 100;
  d.stale_window = 5;
  d.seed = 9;
  return d;
}

TEST(DisasterPlanTest, DeterministicForSeed) {
  GredSystem sys = make_system(5, 5);
  const auto& parts = sys.controller().space().participants();
  const auto& pos = sys.controller().space().positions();
  auto d = disaster_options();
  d.region_kills = 2;
  d.partitions = 2;
  auto a = FaultPlan::generate_disasters(sys.network().description(), parts,
                                         pos, d);
  auto b = FaultPlan::generate_disasters(sys.network().description(), parts,
                                         pos, d);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().events().size(), b.value().events().size());
  for (std::size_t i = 0; i < a.value().events().size(); ++i) {
    const auto& ea = a.value().events()[i];
    const auto& eb = b.value().events()[i];
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.at_event, eb.at_event);
    EXPECT_EQ(ea.repair_at, eb.repair_at);
    EXPECT_EQ(ea.members, eb.members);
    EXPECT_EQ(ea.cut_links, eb.cut_links);
  }
  // Repairs stay in event order even with mixed repair windows.
  std::size_t last_repair = 0;
  for (const auto& e : a.value().events()) {
    EXPECT_GE(e.at_event + 1, 1u);
    EXPECT_GE(e.repair_at, e.at_event);
    EXPECT_GE(e.repair_at, last_repair);
    last_repair = e.repair_at;
  }
}

TEST(DisasterPlanTest, RegionKillReplaysCleanAndRestoresFactor) {
  GredSystem sys = make_system(5, 5);
  ReplicationOptions ropts;
  ropts.factor = 2;
  ropts.region_diverse = true;
  ropts.region_grid = 2;
  ASSERT_TRUE(sys.enable_replication(ropts).ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back("disaster-" + std::to_string(i));
    ASSERT_TRUE(
        sys.place(ids.back(), "v", static_cast<SwitchId>(i % 25)).ok());
  }

  auto plan = FaultPlan::generate_disasters(
      sys.network().description(), sys.controller().space().participants(),
      sys.controller().space().positions(), disaster_options());
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_EQ(plan.value().count(FaultKind::kRegionKill), 1u);
  const auto members = plan.value().events()[0].members;
  ASSERT_GE(members.size(), 2u) << "kill box too small to be correlated";

  FaultSession session(sys, std::move(plan).value());
  session.enable_recovery_tracking();
  auto done = session.finish();
  ASSERT_TRUE(done.ok()) << done.error().to_string();
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.state().any());

  // The whole region is gone from the topology...
  for (const SwitchId m : members) {
    EXPECT_TRUE(sys.network().description().servers_at(m).empty());
  }
  // ...yet region-diverse k=2 kept a copy of everything outside the
  // box, and every repair restored the factor: zero items lost.
  EXPECT_EQ(session.items_lost(), 0u);
  for (const std::string& id : ids) {
    EXPECT_EQ(holders(sys, id).size(), 2u) << id;
  }
  // Items that only degraded (lost one of two copies) were restored.
  for (const auto& [id, rec] : session.recovery()) {
    EXPECT_FALSE(rec.degraded) << id;
  }
}

TEST(DisasterPlanTest, PartitionInjectsHealsAndDestroysNothing) {
  GredSystem sys = make_system(5, 5);
  ASSERT_TRUE(sys.enable_replication().ok());
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("part-" + std::to_string(i));
    ASSERT_TRUE(
        sys.place(ids.back(), "v", static_cast<SwitchId>(i % 25)).ok());
  }
  const std::size_t switches_before = sys.network().switch_count();

  auto d = disaster_options();
  d.region_kills = 0;
  d.partitions = 1;
  d.partition_length = 10;
  auto plan = FaultPlan::generate_disasters(
      sys.network().description(), sys.controller().space().participants(),
      sys.controller().space().positions(), d);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().count(FaultKind::kPartition), 1u);
  const auto& event = plan.value().events()[0];
  ASSERT_FALSE(event.cut_links.empty());

  FaultSession session(sys, std::move(plan).value());
  session.enable_recovery_tracking();
  auto step = session.advance(event.at_event);
  ASSERT_TRUE(step.ok());
  EXPECT_TRUE(session.state().any());
  // Mid-partition retrievals may fail, but always classified.
  RetryPolicy policy;
  policy.max_attempts = 3;
  for (int i = 0; i < 10; ++i) {
    auto out = sys.retrieve_with_fallback(ids[static_cast<std::size_t>(i)],
                                          0, policy);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    if (!out.value().found) {
      EXPECT_NE(out.value().final_status.error().code,
                ErrorCode::kInternal);
    }
  }

  auto done = session.finish();
  ASSERT_TRUE(done.ok()) << done.error().to_string();
  EXPECT_FALSE(session.state().any());
  // A partition severs links without destroying anything: the healed
  // network has the same topology and every copy of every item.
  EXPECT_EQ(sys.network().switch_count(), switches_before);
  EXPECT_EQ(session.items_wiped(), 0u);
  EXPECT_EQ(session.items_lost(), 0u);
  for (const std::string& id : ids) {
    EXPECT_EQ(holders(sys, id).size(), 2u) << id;
    auto out = sys.retrieve(id, 0);
    ASSERT_TRUE(out.ok()) << id;
    EXPECT_TRUE(out.value().route.found) << id;
  }
}

TEST(DisasterPlanTest, RecoveryTrackingExposesRpoWithoutReplication) {
  // Single-copy placement: a region kill genuinely destroys whatever
  // lived inside the box, and recovery accounting must say so.
  GredSystem sys = make_system(5, 5);
  std::vector<std::string> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back("rpo-" + std::to_string(i));
    ASSERT_TRUE(
        sys.place(ids.back(), "v", static_cast<SwitchId>(i % 25)).ok());
  }
  auto plan = FaultPlan::generate_disasters(
      sys.network().description(), sys.controller().space().participants(),
      sys.controller().space().positions(), disaster_options());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().count(FaultKind::kRegionKill), 1u);
  ASSERT_GE(plan.value().events()[0].members.size(), 2u);

  FaultSession session(sys, std::move(plan).value());
  session.enable_recovery_tracking();
  ASSERT_TRUE(session.finish().ok());

  EXPECT_GT(session.items_wiped(), 0u);
  EXPECT_GT(session.items_ever_unavailable(), 0u);
  EXPECT_EQ(session.items_lost(), session.items_ever_unavailable());
  // Survivors never went unavailable and still hold their one copy.
  std::size_t survivors = 0;
  for (const std::string& id : ids) {
    if (!holders(sys, id).empty()) ++survivors;
  }
  EXPECT_EQ(survivors + session.items_lost(), ids.size());
}

}  // namespace
}  // namespace gred
