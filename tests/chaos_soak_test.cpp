// Chaos soak: a seeded FaultPlan replayed against a live GRED system
// with k = 2 replication, interleaved with topology churn and
// concurrent fallback retrievals. The end-to-end statement of the
// fault-tolerance layer:
//   - no item with a surviving copy is ever lost,
//   - every repair brings surviving items straight back to the
//     replication factor,
//   - every retrieval either succeeds or fails with a classified,
//     retry-safe status — never kInternal.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/system.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_session.hpp"
#include "obs/obs.hpp"
#include "sden/hot_key_cache.hpp"
#include "topology/presets.hpp"

namespace gred {
namespace {

using core::GredSystem;
using core::RetryPolicy;
using topology::SwitchId;

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
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

TEST_F(ChaosSoakTest, SeededFaultsChurnAndConcurrentRetrievals) {
  auto built = GredSystem::create(
      topology::uniform_edge_network(topology::grid(4, 5), 2));
  ASSERT_TRUE(built.ok()) << built.error().to_string();
  GredSystem sys = std::move(built).value();
  ASSERT_TRUE(sys.enable_replication().ok());
  // The hot-key cache stays enabled through the whole chaos run. The
  // concurrent fallback batches bypass it by design (only plain
  // retrieve consults the cache, and learn-mode fills are
  // single-threaded); the differential checks below pin that every
  // fault/repair/churn event invalidated conservatively.
  sden::HotKeyCache& cache = sys.network().enable_hot_key_cache();

  Rng rng(0xFA017u);
  std::vector<std::string> live;
  int next_id = 0;
  auto alive_ingress = [&](const sden::FaultState& faults) -> SwitchId {
    const auto& parts = sys.controller().space().participants();
    for (;;) {
      const SwitchId s = parts[rng.next_below(parts.size())];
      if (!faults.switch_is_down(s)) return s;
    }
  };
  for (int i = 0; i < 120; ++i) {
    const std::string id = "chaos-" + std::to_string(next_id++);
    ASSERT_TRUE(sys.place(id, "payload-" + id, alive_ingress({})).ok());
    live.push_back(id);
  }

  fault::FaultPlanOptions fopt;
  fopt.event_count = 10;
  fopt.schedule_length = 240;
  fopt.stale_window = 6;
  fopt.seed = 20260805;
  auto plan = fault::FaultPlan::generate(sys.network().description(), fopt);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_GE(plan.value().events().size(), 8u);

  // Every instant at which the session state changes, in order.
  std::set<std::size_t> deadlines;
  for (const auto& e : plan.value().events()) {
    deadlines.insert(e.at_event);
    deadlines.insert(e.repair_at);
  }

  fault::FaultSession session(sys, std::move(plan).value());

  RetryPolicy policy;
  policy.max_attempts = 6;

  struct SlotResult {
    bool ok = false;
    bool found = false;
    bool classified = false;
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
  };

  std::size_t retrievals = 0;
  std::size_t found_count = 0;
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

    // Factor invariant: a repair leaves every surviving item at the
    // full replication factor (injections don't destroy data; only a
    // crash repair wipes, and its reconcile pass runs right after).
    if (session.repaired() > 0 &&
        session.repaired() == session.injected()) {
      for (const std::string& id : live) {
        const std::size_t held = holder_count(sys, id);
        if (held > 0) {
          EXPECT_EQ(held, 2u) << "t=" << t << " item " << id;
        }
      }
    }

    // Churn riding along with the faults.
    if (step % 3 == 1) {
      (void)sys.add_link(alive_ingress(session.state()),
                         alive_ingress(session.state()));
    }
    if (step == 4) {
      const SwitchId u = alive_ingress(session.state());
      const SwitchId v = alive_ingress(session.state());
      (void)sys.add_switch({u, v}, /*servers=*/2);
    }
    // New placements during fault windows may fail with a classified
    // routing error; the item is live only once fully placed.
    const std::string id = "chaos-" + std::to_string(next_id++);
    auto placed =
        sys.place(id, "payload-" + id, alive_ingress(session.state()));
    if (placed.ok()) {
      live.push_back(id);
    } else {
      EXPECT_NE(placed.error().code, ErrorCode::kInternal)
          << placed.error().to_string();
    }

    // A concurrent batch of fallback retrievals of random live items
    // from healthy ingress switches.
    constexpr std::size_t kBatch = 16;
    std::vector<std::string> ids(kBatch);
    std::vector<SwitchId> ingresses(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids[i] = live[rng.next_below(live.size())];
      ingresses[i] = alive_ingress(session.state());
    }
    std::vector<SlotResult> results(kBatch);
    global_pool().parallel_for(0, kBatch, 4, [&](std::size_t lo,
                                                 std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        auto out = sys.retrieve_with_fallback(ids[i], ingresses[i], policy);
        SlotResult& slot = results[i];
        slot.ok = out.ok();
        if (!out.ok()) {
          slot.code = out.error().code;
          slot.message = out.error().message;
          continue;
        }
        slot.found = out.value().found;
        if (!out.value().found) {
          slot.classified = !out.value().final_status.ok();
          slot.code = out.value().final_status.error().code;
          slot.message = out.value().final_status.error().message;
        }
      }
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      ++retrievals;
      ASSERT_TRUE(results[i].ok)
          << "t=" << t << " " << ids[i] << ": unclassified error "
          << results[i].message;
      if (results[i].found) {
        ++found_count;
      } else {
        // Exhausted retries must carry a classified status.
        EXPECT_TRUE(results[i].classified) << "t=" << t << " " << ids[i];
        EXPECT_NE(results[i].code, ErrorCode::kInternal)
            << "t=" << t << " " << ids[i] << ": " << results[i].message;
      }
    }

    // Healthy interludes: cached and uncached retrievals must agree
    // exactly. (Hard faults bump the cache epoch at inject time, but
    // during a flaky-link window a surviving cache hit can still
    // legitimately answer while routing happens to drop, so the
    // comparison is only meaningful when no fault is installed.)
    if (!session.state().any()) {
      for (int i = 0; i < 4; ++i) {
        const std::string& id = live[rng.next_below(live.size())];
        const SwitchId ingress = alive_ingress(session.state());
        auto warm = sys.retrieve(id, ingress);  // learn-mode fill
        auto cached = sys.retrieve(id, ingress);
        cache.set_enabled(false);
        auto plain = sys.retrieve(id, ingress);
        cache.set_enabled(true);
        ASSERT_TRUE(warm.ok() && cached.ok() && plain.ok())
            << "t=" << t << " " << id;
        EXPECT_EQ(cached.value().route.found, plain.value().route.found)
            << "t=" << t << " " << id;
        EXPECT_EQ(cached.value().route.payload,
                  plain.value().route.payload)
            << "t=" << t << " " << id;
      }
    }
    ++step;
  }

  auto finished = session.finish();
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.state().any());

  // k = 2 and one wipe per repair: no item can lose both copies, so
  // nothing is ever lost and the factor is fully restored.
  for (const std::string& id : live) {
    EXPECT_EQ(holder_count(sys, id), 2u) << "lost " << id;
  }

  // The healed network is structurally sound and fully serving.
  const auto graph_report =
      check::validate_graph(sys.network().description().switches());
  EXPECT_TRUE(graph_report.ok()) << graph_report.to_string();
  const auto table_report = check::validate_flow_tables(
      sys.network(), sys.controller().space().participants(),
      sys.controller().space().positions());
  EXPECT_TRUE(table_report.ok()) << table_report.to_string();
  for (const std::string& id : live) {
    auto out = sys.retrieve_with_fallback(id, alive_ingress({}), policy);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_TRUE(out.value().found) << id;
  }

  // Post-heal differential sweep: after every crash wipe, replication
  // repair, and topology change, a cached answer must be bit-identical
  // to an uncached one for every surviving item.
  std::size_t cache_served = 0;
  for (const std::string& id : live) {
    const SwitchId ingress = alive_ingress({});
    auto warm = sys.retrieve(id, ingress);
    auto cached = sys.retrieve(id, ingress);
    cache.set_enabled(false);
    auto plain = sys.retrieve(id, ingress);
    cache.set_enabled(true);
    ASSERT_TRUE(warm.ok() && cached.ok() && plain.ok()) << id;
    cache_served += cached.value().served_from_cache ? 1 : 0;
    EXPECT_EQ(cached.value().route.found, plain.value().route.found) << id;
    EXPECT_EQ(cached.value().route.payload, plain.value().route.payload)
        << id;
    EXPECT_EQ(cached.value().route.responder,
              plain.value().route.responder)
        << id;
  }
  EXPECT_GT(cache_served, 0u);
  EXPECT_GT(cache.hits(), 0u);

  // Under faults, the vast majority of mid-chaos retrievals still
  // succeed via fallback (the exact count is seed-deterministic).
  EXPECT_GT(retrievals, 0u);
  EXPECT_GE(static_cast<double>(found_count),
            0.95 * static_cast<double>(retrievals))
      << found_count << "/" << retrievals;
}

}  // namespace
}  // namespace gred
