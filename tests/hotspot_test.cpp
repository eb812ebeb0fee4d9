// Hotspot-traffic machinery: the per-switch hot-key cache (unit +
// protocol integration + coherence), the switch load tracker, the
// load-driven range extension, the Zipf+spatial workload generator,
// and the delay model's cache path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/delay_experiment.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "crypto/sha256.hpp"
#include "obs/switch_load.hpp"
#include "sden/hot_key_cache.hpp"
#include "topology/presets.hpp"
#include "workload/hotspot.hpp"
#include "workload/zipf.hpp"

namespace gred::core {
namespace {

using sden::HotKeyCache;
using topology::SwitchId;

GredSystem make_system(graph::Graph g, std::size_t per_switch,
                       VirtualSpaceOptions opt = {}) {
  auto sys = GredSystem::create(
      topology::uniform_edge_network(std::move(g), per_switch), opt);
  EXPECT_TRUE(sys.ok());
  return std::move(sys).value();
}

crypto::Digest digest_of(const std::string& id) {
  return crypto::DataKey(id).digest();
}

// ---------- HotKeyCache unit ----------

TEST(HotKeyCacheTest, InsertProbeRoundTrip) {
  HotKeyCache cache(4, 2);
  const crypto::Digest d = digest_of("a");
  cache.insert(1, d, "payload-a", 3, 7);
  const HotKeyCache::Entry* e = cache.probe(1, d);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, "payload-a");
  EXPECT_EQ(e->home, 3u);
  EXPECT_EQ(e->responder, 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
}

TEST(HotKeyCacheTest, MissOnWrongSwitchOrDigest) {
  HotKeyCache cache(4, 2);
  cache.insert(1, digest_of("a"), "p", 0, 0);
  EXPECT_EQ(cache.probe(2, digest_of("a")), nullptr);  // other switch
  EXPECT_EQ(cache.probe(1, digest_of("b")), nullptr);  // other id
  // Out-of-range switches miss cheaply, before the tally.
  EXPECT_EQ(cache.probe(99, digest_of("a")), nullptr);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(HotKeyCacheTest, DisabledAlwaysMisses) {
  HotKeyCache cache(2, 2);
  cache.insert(0, digest_of("a"), "p", 0, 0);
  cache.set_enabled(false);
  EXPECT_EQ(cache.probe(0, digest_of("a")), nullptr);
  cache.set_enabled(true);
  EXPECT_NE(cache.probe(0, digest_of("a")), nullptr);
}

TEST(HotKeyCacheTest, EpochInvalidationDropsEverything) {
  HotKeyCache cache(2, 2);
  cache.insert(0, digest_of("a"), "p", 0, 0);
  cache.insert(1, digest_of("b"), "q", 0, 0);
  cache.invalidate_all();
  EXPECT_EQ(cache.probe(0, digest_of("a")), nullptr);
  EXPECT_EQ(cache.probe(1, digest_of("b")), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  // Refill after the bump works.
  cache.insert(0, digest_of("a"), "p2", 0, 0);
  const HotKeyCache::Entry* e = cache.probe(0, digest_of("a"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, "p2");
}

TEST(HotKeyCacheTest, InvalidateIdDropsOnlyThatId) {
  HotKeyCache cache(2, 2);
  cache.insert(0, digest_of("a"), "p", 0, 0);
  cache.insert(0, digest_of("b"), "q", 0, 0);
  cache.insert(1, digest_of("a"), "p", 0, 0);
  cache.invalidate_id(digest_of("a"));
  EXPECT_EQ(cache.probe(0, digest_of("a")), nullptr);
  EXPECT_EQ(cache.probe(1, digest_of("a")), nullptr);
  EXPECT_NE(cache.probe(0, digest_of("b")), nullptr);
}

TEST(HotKeyCacheTest, RefreshInPlaceUpdatesPayload) {
  HotKeyCache cache(1, 2);
  cache.insert(0, digest_of("a"), "old", 0, 0);
  cache.insert(0, digest_of("a"), "new", 1, 2);
  const HotKeyCache::Entry* e = cache.probe(0, digest_of("a"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->payload, "new");
  EXPECT_EQ(e->home, 1u);
  EXPECT_EQ(e->responder, 2u);
}

TEST(HotKeyCacheTest, ClockEvictionKeepsReferencedEntry) {
  HotKeyCache cache(1, 2);
  cache.insert(0, digest_of("a"), "pa", 0, 0);
  cache.insert(0, digest_of("b"), "pb", 0, 0);
  // Overflowing the 2-way set sweeps both reference bits and evicts
  // one of the residents; the new entry is always present.
  cache.insert(0, digest_of("c"), "pc", 0, 0);
  ASSERT_NE(cache.probe(0, digest_of("c")), nullptr);  // also refs "c"
  // The next fill must evict the unreferenced survivor, never the
  // just-referenced "c".
  cache.insert(0, digest_of("d"), "pd", 0, 0);
  EXPECT_NE(cache.probe(0, digest_of("c")), nullptr);
  EXPECT_NE(cache.probe(0, digest_of("d")), nullptr);
  EXPECT_EQ(cache.probe(0, digest_of("a")), nullptr);
  EXPECT_EQ(cache.probe(0, digest_of("b")), nullptr);
}

TEST(HotKeyCacheTest, EnsureSwitchesKeepsEntries) {
  HotKeyCache cache(1, 2);
  cache.insert(0, digest_of("a"), "p", 0, 0);
  cache.ensure_switches(5);
  EXPECT_EQ(cache.switch_count(), 5u);
  EXPECT_NE(cache.probe(0, digest_of("a")), nullptr);
  cache.insert(4, digest_of("b"), "q", 0, 0);
  EXPECT_NE(cache.probe(4, digest_of("b")), nullptr);
}

TEST(HotKeyCacheTest, StatsAndClear) {
  HotKeyCache cache(1, 1);
  cache.insert(0, digest_of("a"), "p", 0, 0);
  cache.probe(0, digest_of("a"));
  cache.probe(0, digest_of("b"));
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  cache.reset_stats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
  cache.clear();
  EXPECT_EQ(cache.probe(0, digest_of("a")), nullptr);
}

TEST(HotKeyCacheTest, ClockHandPassesWay256) {
  // Regression: the hand was one byte wide, so the hand stored after
  // evicting way 255 of a 300-way set was 0. The next sweep cleared the
  // reference bits of ways 0-255 and the fill after it evicted k301,
  // filled moments before, instead of the unreferenced k257.
  HotKeyCache cache(1, 300);
  for (int i = 0; i <= 557; ++i) {
    EXPECT_EQ(cache.insert(0, digest_of("k" + std::to_string(i)), "p", 0, 0),
              static_cast<std::size_t>(i < 300 ? i : i - 300));
  }
  EXPECT_NE(cache.probe(0, digest_of("k301")), nullptr);
  EXPECT_EQ(cache.probe(0, digest_of("k257")), nullptr);
}

// ---------- HotKeyCache against the entry-by-entry scan ----------

// The oracle: a set as an array of whole entries, every probe and fill
// scanning them way by way. The policy is the cache's: a probe hits the
// first used way of the current epoch and key version holding the
// digest; a fill refreshes the key's live way, else takes the first
// unused or stale way, else sweeps CLOCK from a per-switch hand.
class ReferenceCache {
 public:
  struct Way {
    crypto::Digest digest{};
    std::string payload;
    SwitchId home = 0;
    topology::ServerId responder = topology::kNoServer;
    std::uint64_t epoch = 0;
    std::uint64_t version = 0;
    bool used = false;
    bool referenced = false;
  };

  ReferenceCache(std::size_t switches, std::size_t ways)
      : switches_(switches),
        ways_(ways),
        ways_of_(switches * ways),
        hand_(switches, 0),
        versions_(kSlots, 0) {}

  const Way* probe(SwitchId sw, const crypto::Digest& d) {
    if (sw >= switches_) return nullptr;
    for (std::size_t w = 0; w < ways_; ++w) {
      Way& e = way(sw, w);
      if (e.used && e.epoch == epoch_ && e.digest == d &&
          e.version == version_of(d)) {
        e.referenced = true;
        ++hits;
        return &e;
      }
    }
    ++misses;
    return nullptr;
  }

  std::size_t insert(SwitchId sw, const crypto::Digest& d,
                     const std::string& payload, SwitchId home,
                     topology::ServerId responder) {
    if (sw >= switches_) return ways_;
    std::size_t victim = ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
      const Way& e = way(sw, w);
      if (e.used && e.epoch == epoch_ && e.digest == d) {
        victim = w;
        ++refreshes;
        break;
      }
      if (victim == ways_ && (!e.used || e.epoch != epoch_ ||
                              e.version != version_of(e.digest))) {
        victim = w;
      }
    }
    if (victim == ways_) {
      std::size_t h = hand_[sw];
      while (way(sw, h).referenced) {
        way(sw, h).referenced = false;
        h = (h + 1) % ways_;
      }
      victim = h;
      hand_[sw] = (h + 1) % ways_;
      ++evictions;
    }
    way(sw, victim) = {d,       payload, home, responder, epoch_,
                       version_of(d), true, true};
    ++insertions;
    return victim;
  }

  void invalidate_all() {
    ++epoch_;
    ++invalidations;
  }
  void invalidate_id(const crypto::Digest& d) {
    ++versions_[slot(d)];
    ++invalidations;
  }
  void ensure_switches(std::size_t switches) {
    if (switches <= switches_) return;
    switches_ = switches;
    ways_of_.resize(switches_ * ways_);
    for (Way& e : ways_of_) e.referenced = false;
    hand_.assign(switches_, 0);
  }
  void clear() {
    invalidate_all();
    for (Way& e : ways_of_) e = Way{};
    hand_.assign(switches_, 0);
  }
  std::size_t switch_count() const { return switches_; }

  std::uint64_t hits = 0, misses = 0, insertions = 0, invalidations = 0;
  std::uint64_t refreshes = 0, evictions = 0;

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 14;
  static std::size_t slot(const crypto::Digest& d) {
    std::uint64_t prefix = 0;
    std::memcpy(&prefix, d.data(), sizeof prefix);
    return static_cast<std::size_t>(prefix) & (kSlots - 1);
  }
  std::uint64_t version_of(const crypto::Digest& d) const {
    return versions_[slot(d)];
  }
  Way& way(SwitchId sw, std::size_t w) { return ways_of_[sw * ways_ + w]; }

  std::size_t switches_;
  std::size_t ways_;
  std::vector<Way> ways_of_;
  std::vector<std::size_t> hand_;
  std::vector<std::uint64_t> versions_;
  std::uint64_t epoch_ = 1;
};

// Keys with the collisions a tag-first set must get right: key 4j + 1
// has key 4j's tag (the digest's first eight bytes) but another digest,
// and key 4j + 2 has another tag in key 4j's version slot.
std::vector<crypto::Digest> colliding_keys(std::size_t n) {
  std::vector<crypto::Digest> keys;
  for (std::size_t i = 0; i < n; ++i) {
    crypto::Digest d = crypto::sha256("differential-" + std::to_string(i));
    if (i % 4 == 1) {
      std::memcpy(d.data(), keys[i - 1].data(), 8);
    } else if (i % 4 == 2) {
      std::uint64_t prefix = 0;
      std::memcpy(&prefix, keys[i - 2].data(), sizeof prefix);
      prefix += std::uint64_t{1} << 14;
      std::memcpy(d.data(), &prefix, sizeof prefix);
    }
    keys.push_back(d);
  }
  return keys;
}

bool same_answer(const HotKeyCache::Entry* got,
                 const ReferenceCache::Way* want) {
  if (got == nullptr || want == nullptr) {
    return (got == nullptr) == (want == nullptr);
  }
  return got->digest == want->digest && got->payload == want->payload &&
         got->home == want->home && got->responder == want->responder;
}

// Replays one seeded Zipf stream of probes (a miss mostly followed by a
// fill, as learn mode does), direct fills, id and epoch invalidations,
// growth and clears through both caches.
void replay_against_reference(std::size_t ways, std::uint64_t seed) {
  SCOPED_TRACE("ways " + std::to_string(ways));
  const std::vector<crypto::Digest> keys = colliding_keys(256);
  const workload::ZipfSampler zipf(keys.size(), 1.1);
  Rng rng(seed);
  HotKeyCache cache(3, ways);
  ReferenceCache ref(3, ways);
  std::size_t fill_ops = 0;
  std::size_t hits_seen = 0;
  for (std::size_t step = 0; step < 20000; ++step) {
    const crypto::Digest& key = keys[zipf.sample(rng)];
    // One switch past the end: out of range, so no tally.
    const auto sw =
        static_cast<SwitchId>(rng.next_below(ref.switch_count() + 1));
    const std::string payload = "p" + std::to_string(step % 97);
    const auto home = static_cast<SwitchId>(step % 11);
    const topology::ServerId responder = step % 13;
    const double op = rng.next_double();
    if (op < 0.6) {
      const HotKeyCache::Entry* got = cache.probe(sw, key);
      const ReferenceCache::Way* want = ref.probe(sw, key);
      ASSERT_TRUE(same_answer(got, want)) << "probe at step " << step;
      if (got != nullptr) ++hits_seen;
      if (got == nullptr && rng.next_double() < 0.8) {
        ++fill_ops;
        ASSERT_EQ(cache.insert(sw, key, payload, home, responder),
                  ref.insert(sw, key, payload, home, responder))
            << "fill after miss at step " << step;
      }
    } else if (op < 0.88) {
      ++fill_ops;
      ASSERT_EQ(cache.insert(sw, key, payload, home, responder),
                ref.insert(sw, key, payload, home, responder))
          << "fill at step " << step;
    } else if (op < 0.99) {
      cache.invalidate_id(key);
      ref.invalidate_id(key);
    } else if (op < 0.995) {
      cache.invalidate_all();
      ref.invalidate_all();
    } else if (op < 0.998) {
      // 3 to 6 switches: a no-op until the request exceeds the count.
      const std::size_t grown = 3 + rng.next_below(4);
      cache.ensure_switches(grown);
      ref.ensure_switches(grown);
    } else {
      cache.clear();
      ref.clear();
    }
    ASSERT_EQ(cache.switch_count(), ref.switch_count());
  }
  EXPECT_EQ(cache.hits(), ref.hits);
  EXPECT_EQ(cache.misses(), ref.misses);
  EXPECT_EQ(cache.insertions(), ref.insertions);
  EXPECT_EQ(cache.invalidations(), ref.invalidations);
  // The stream reached every branch of the fill policy.
  EXPECT_GT(hits_seen, 300u);
  EXPECT_GT(ref.refreshes, 300u);
  EXPECT_GT(ref.evictions, 300u);
  EXPECT_GT(ref.insertions - ref.refreshes - ref.evictions, 1000u);  // stale
  EXPECT_GT(fill_ops, 5000u);
  EXPECT_GT(ref.switch_count(), 3u);
}

TEST(HotKeyCacheTest, MatchesEntryByEntryScanOnZipfStream) {
  for (const std::size_t ways : {1, 2, 16}) {
    replay_against_reference(ways, 7000 + ways);
  }
}

TEST(HotKeyCacheTest, ConcurrentServeProbesMatchSerialRun) {
  const std::vector<crypto::Digest> keys = colliding_keys(64);
  const workload::ZipfSampler zipf(keys.size(), 1.1);
  Rng rng(91);
  HotKeyCache cache(4, 16);
  for (int i = 0; i < 400; ++i) {
    const crypto::Digest& key = keys[zipf.sample(rng)];
    const auto sw = static_cast<SwitchId>(rng.next_below(4));
    if (cache.probe(sw, key) == nullptr) {
      cache.insert(sw, key, "v" + std::to_string(i), sw, 0);
    }
    if (i % 50 == 0) cache.invalidate_id(key);
  }
  cache.set_mode(HotKeyCache::Mode::kServe);

  const std::uint64_t warm_hits = cache.hits();
  std::vector<const HotKeyCache::Entry*> serial;
  for (SwitchId sw = 0; sw < 4; ++sw) {
    for (const crypto::Digest& key : keys) {
      serial.push_back(cache.probe(sw, key));
    }
  }
  const std::uint64_t serial_hits = cache.hits() - warm_hits;
  ASSERT_GT(serial_hits, 0u);
  ASSERT_LT(serial_hits, serial.size());

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::size_t i = 0;
        for (SwitchId sw = 0; sw < 4; ++sw) {
          for (const crypto::Digest& key : keys) {
            if (cache.probe(sw, key) != serial[i++]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cache.hits(), warm_hits + serial_hits * (1 + kThreads * kRounds));
}

// ---------- SwitchLoadTracker ----------

TEST(SwitchLoadTrackerTest, RecordRollEwma) {
  obs::SwitchLoadTracker t(3, 0.5);
  for (int i = 0; i < 10; ++i) t.record(0);
  t.record(2);
  EXPECT_EQ(t.window_count(0), 10u);
  EXPECT_EQ(t.window_count(1), 0u);
  EXPECT_EQ(t.roll_window(), 11u);
  EXPECT_EQ(t.window_count(0), 0u);  // window zeroed
  EXPECT_DOUBLE_EQ(t.ewma(0), 5.0);  // 0.5 * 10
  EXPECT_DOUBLE_EQ(t.ewma(2), 0.5);
  // Second empty window halves the EWMA.
  EXPECT_EQ(t.roll_window(), 0u);
  EXPECT_DOUBLE_EQ(t.ewma(0), 2.5);
}

TEST(SwitchLoadTrackerTest, OutOfRangeRecordDropped) {
  obs::SwitchLoadTracker t(2);
  t.record(7);  // not UB, just dropped
  EXPECT_EQ(t.roll_window(), 0u);
  EXPECT_DOUBLE_EQ(t.ewma(7), 0.0);
}

TEST(SwitchLoadTrackerTest, MeanAndMaxEwma) {
  obs::SwitchLoadTracker t(3, 1.0);
  for (int i = 0; i < 9; ++i) t.record(1);
  t.roll_window();
  EXPECT_DOUBLE_EQ(t.max_ewma(), 9.0);
  EXPECT_DOUBLE_EQ(t.mean_ewma(), 3.0);
  EXPECT_DOUBLE_EQ(t.mean_ewma({0, 2}), 0.0);
  EXPECT_DOUBLE_EQ(t.mean_ewma({1}), 9.0);
}

TEST(SwitchLoadTrackerTest, EnsureSwitchesKeepsCounts) {
  obs::SwitchLoadTracker t(1, 1.0);
  t.record(0);
  t.ensure_switches(4);
  EXPECT_EQ(t.switch_count(), 4u);
  EXPECT_EQ(t.window_count(0), 1u);
  t.record(3);
  EXPECT_EQ(t.roll_window(), 2u);
  t.reset();
  EXPECT_DOUBLE_EQ(t.ewma(0), 0.0);
}

// ---------- protocol integration ----------

TEST(ProtocolCacheTest, SecondRetrieveServedFromCache) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  sys.network().enable_hot_key_cache();
  ASSERT_TRUE(sys.place("hot-item", "the-payload", 0).ok());

  auto first = sys.retrieve("hot-item", 5);
  ASSERT_TRUE(first.ok() && first.value().route.found);
  EXPECT_FALSE(first.value().served_from_cache);

  auto second = sys.retrieve("hot-item", 5);
  ASSERT_TRUE(second.ok() && second.value().route.found);
  EXPECT_TRUE(second.value().served_from_cache);
  EXPECT_EQ(second.value().route.payload, "the-payload");
  EXPECT_EQ(second.value().route.responder, first.value().route.responder);
  EXPECT_EQ(second.value().ingress, 5u);
  // A different ingress has its own (cold) cache set.
  auto elsewhere = sys.retrieve("hot-item", 9);
  ASSERT_TRUE(elsewhere.ok() && elsewhere.value().route.found);
  EXPECT_FALSE(elsewhere.value().served_from_cache);
}

/// Routes one packet for `id` straight through SdenNetwork::route(),
/// bypassing GredProtocol (and so any invalidation it could do).
sden::RouteResult route_direct(GredSystem& sys, sden::PacketType type,
                               const std::string& id,
                               const std::string& payload,
                               SwitchId ingress) {
  sden::Packet pkt;
  pkt.type = type;
  pkt.data_id = id;
  pkt.payload = payload;
  const crypto::DataKey key(id);
  pkt.target = {key.position().x, key.position().y};
  pkt.set_key(key);
  sden::RouteResult r;
  sys.network().route(pkt, ingress, r);
  return r;
}

TEST(ProtocolCacheTest, PlaceOverwriteInvalidatesCachedPayload) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  sys.network().enable_hot_key_cache();
  ASSERT_TRUE(sys.place("d", "v1", 0).ok());
  ASSERT_TRUE(sys.retrieve("d", 3).ok());  // fill
  ASSERT_TRUE(sys.retrieve("d", 3).value().served_from_cache);

  ASSERT_TRUE(sys.place("d", "v2", 1).ok());
  auto after = sys.retrieve("d", 3);
  ASSERT_TRUE(after.ok() && after.value().route.found);
  EXPECT_FALSE(after.value().served_from_cache);  // entry dropped
  EXPECT_EQ(after.value().route.payload, "v2");
  // And the refill serves the new payload.
  auto refilled = sys.retrieve("d", 3);
  EXPECT_TRUE(refilled.value().served_from_cache);
  EXPECT_EQ(refilled.value().route.payload, "v2");

  // The network invalidates at the write itself, so an overwrite routed
  // around GredProtocol drops the cached payload too.
  ASSERT_TRUE(
      route_direct(sys, sden::PacketType::kPlacement, "d", "v3", 1)
          .status.ok());
  auto routed = sys.retrieve("d", 3);
  ASSERT_TRUE(routed.ok() && routed.value().route.found);
  EXPECT_FALSE(routed.value().served_from_cache);
  EXPECT_EQ(routed.value().route.payload, "v3");
}

TEST(ProtocolCacheTest, RemoveInvalidatesCachedAnswer) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  sys.network().enable_hot_key_cache();
  ASSERT_TRUE(sys.place("d", "v", 0).ok());
  ASSERT_TRUE(sys.retrieve("d", 2).ok());  // fill
  ASSERT_TRUE(sys.retrieve("d", 2).value().served_from_cache);

  ASSERT_TRUE(sys.remove("d", 0).ok());
  auto gone = sys.retrieve("d", 2);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone.value().route.found);  // never a stale cached hit
  EXPECT_FALSE(gone.value().served_from_cache);

  // Same for a removal routed around GredProtocol.
  ASSERT_TRUE(sys.place("d", "v", 0).ok());
  ASSERT_TRUE(sys.retrieve("d", 2).ok());  // refill
  ASSERT_TRUE(sys.retrieve("d", 2).value().served_from_cache);
  const sden::RouteResult del =
      route_direct(sys, sden::PacketType::kRemoval, "d", "", 0);
  ASSERT_TRUE(del.status.ok() && del.found);
  auto routed = sys.retrieve("d", 2);
  ASSERT_TRUE(routed.ok());
  EXPECT_FALSE(routed.value().route.found);
  EXPECT_FALSE(routed.value().served_from_cache);
}

// A rejected range op only reads the switch, so it must neither mark
// the route plan stale nor drop cached answers.
TEST(ProtocolCacheTest, RejectedRangeOpsKeepPlanAndCache) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  sys.network().enable_hot_key_cache();
  ASSERT_TRUE(sys.place("d", "v", 0).ok());
  ASSERT_TRUE(sys.retrieve("d", 3).ok());  // fill; syncs the plan
  ASSERT_FALSE(sys.network().route_plan_stale());

  // No extension is active on server 0.
  EXPECT_EQ(sys.retract_range(0).error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(sys.network().route_plan_stale());
  auto warm = sys.retrieve("d", 3);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().served_from_cache);

  // Re-extending an active extension is rejected the same way.
  ASSERT_TRUE(sys.extend_range(0).ok());
  ASSERT_TRUE(sys.retrieve("d", 3).ok());  // refill after the extension
  ASSERT_FALSE(sys.network().route_plan_stale());
  EXPECT_EQ(sys.extend_range(0).error().code,
            ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(sys.network().route_plan_stale());
  auto still_warm = sys.retrieve("d", 3);
  ASSERT_TRUE(still_warm.ok());
  EXPECT_TRUE(still_warm.value().served_from_cache);
}

TEST(ProtocolCacheTest, RangeExtensionNeverServesStaleHome) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  sys.network().enable_hot_key_cache();
  Rng rng(31);
  std::vector<std::string> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back("ext-" + std::to_string(i));
    ASSERT_TRUE(sys.place(ids.back(), "pay-" + ids.back(),
                          rng.next_below(16))
                    .ok());
  }
  // Warm every id at a fixed ingress.
  for (const std::string& id : ids) ASSERT_TRUE(sys.retrieve(id, 0).ok());

  // Extend some server's range (moves half its items to a neighbor).
  ASSERT_TRUE(sys.extend_range(0).ok());

  // Every retrieval still returns the right payload; the first pass
  // after the extension re-routes (the epoch bump dropped every entry).
  for (const std::string& id : ids) {
    auto r = sys.retrieve(id, 0);
    ASSERT_TRUE(r.ok() && r.value().route.found) << id;
    EXPECT_EQ(r.value().route.payload, "pay-" + id);
  }
}

TEST(ProtocolCacheTest, CachedAndUncachedAgree) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  HotKeyCache& cache = sys.network().enable_hot_key_cache();
  Rng rng(32);
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back("agree-" + std::to_string(i));
    ASSERT_TRUE(
        sys.place(ids.back(), "p" + std::to_string(i), rng.next_below(16))
            .ok());
  }
  for (const std::string& id : ids) {
    const SwitchId ingress = rng.next_below(16);
    ASSERT_TRUE(sys.retrieve(id, ingress).ok());  // warm
    auto cached = sys.retrieve(id, ingress);
    cache.set_enabled(false);
    auto uncached = sys.retrieve(id, ingress);
    cache.set_enabled(true);
    ASSERT_TRUE(cached.ok() && uncached.ok());
    EXPECT_TRUE(cached.value().served_from_cache);
    EXPECT_FALSE(uncached.value().served_from_cache);
    EXPECT_EQ(cached.value().route.found, uncached.value().route.found);
    EXPECT_EQ(cached.value().route.payload, uncached.value().route.payload);
    EXPECT_EQ(cached.value().route.responder,
              uncached.value().route.responder);
  }
}

TEST(ProtocolCacheTest, LoadTrackerObservesRetrievals) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  obs::SwitchLoadTracker tracker(16);
  sys.network().set_load_tracker(&tracker);
  sys.network().enable_hot_key_cache();
  ASSERT_TRUE(sys.place("t", "v", 0).ok());
  ASSERT_TRUE(sys.retrieve("t", 4).ok());  // routed: counts at the home
  ASSERT_TRUE(sys.retrieve("t", 4).ok());  // cached: counts at ingress 4
  EXPECT_EQ(tracker.roll_window(), 2u);
  sys.network().set_load_tracker(nullptr);
}

// ---------- load-driven extension ----------

TEST(ExtendForLoadTest, TriggersOnHotSwitch) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  Rng rng(33);
  std::vector<std::string> ids;
  for (int i = 0; i < 80; ++i) {
    ids.push_back("load-" + std::to_string(i));
    ASSERT_TRUE(sys.place(ids.back(), "pl-" + ids.back(),
                          rng.next_below(16))
                    .ok());
  }
  obs::SwitchLoadTracker tracker(16);
  const SwitchId hot = 5;
  for (int i = 0; i < 200; ++i) tracker.record(hot);
  tracker.record(1);
  tracker.roll_window();

  LoadExtensionOptions opts;
  opts.hot_factor = 2.0;
  auto performed = sys.extend_for_load(tracker, opts);
  ASSERT_TRUE(performed.ok());
  EXPECT_GE(performed.value(), 1u);
  // The hot switch now delegates part of some server's range.
  EXPECT_FALSE(sys.network().switch_at(hot).table().rewrites().empty());
  // Every item is still retrievable with its payload intact.
  for (const std::string& id : ids) {
    auto r = sys.retrieve(id, 3);
    ASSERT_TRUE(r.ok() && r.value().route.found) << id;
    EXPECT_EQ(r.value().route.payload, "pl-" + id);
  }
}

// Regression: the tracker is sized at construction and record()
// silently drops out-of-range ids, so a switch joining after the
// tracker was attached used to be invisible to extend_for_load no
// matter how hot it ran. SdenNetwork::add_switch now grows the
// attached tracker alongside the hot-key cache.
TEST(ExtendForLoadTest, PostJoinSwitchIsVisibleToLoadExtension) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  obs::SwitchLoadTracker tracker(16);
  sys.network().set_load_tracker(&tracker);

  auto added = sys.add_switch({5, 10}, /*servers=*/2);
  ASSERT_TRUE(added.ok()) << added.error().to_string();
  const SwitchId joined = added.value();
  // The join must grow the tracker, or every sample below is dropped.
  ASSERT_EQ(tracker.switch_count(), sys.network().switch_count());

  // Items homed at the joined switch, so routed retrievals record
  // their load there.
  std::vector<std::string> hot_ids;
  for (int i = 0; i < 600 && hot_ids.size() < 4; ++i) {
    const std::string id = "join-" + std::to_string(i);
    const crypto::SpacePoint pos = crypto::DataKey(id).position();
    if (sys.controller().home_switch({pos.x, pos.y}) == joined) {
      ASSERT_TRUE(sys.place(id, "pl-" + id, 0).ok());
      hot_ids.push_back(id);
    }
  }
  ASSERT_FALSE(hot_ids.empty()) << "no key homed at the joined switch";
  for (int i = 0; i < 200; ++i) {
    const std::string& id = hot_ids[static_cast<std::size_t>(i) %
                                    hot_ids.size()];
    auto r = sys.retrieve(id, 1);
    ASSERT_TRUE(r.ok() && r.value().route.found) << id;
  }
  // Mild uniform background load keeps the pre-join switches cold.
  for (SwitchId s = 0; s < 16; ++s) {
    for (int i = 0; i < 10; ++i) tracker.record(s);
  }
  tracker.roll_window();

  LoadExtensionOptions opts;
  opts.hot_factor = 2.0;
  auto performed = sys.extend_for_load(tracker, opts);
  ASSERT_TRUE(performed.ok()) << performed.error().to_string();
  EXPECT_GE(performed.value(), 1u);
  // The extension landed on the post-join switch.
  EXPECT_FALSE(sys.network().switch_at(joined).table().rewrites().empty());
  sys.network().set_load_tracker(nullptr);
}

TEST(ExtendForLoadTest, UniformLoadIsANoop) {
  GredSystem sys = make_system(topology::grid(3, 3), 2);
  obs::SwitchLoadTracker tracker(9);
  for (std::size_t s = 0; s < 9; ++s) {
    for (int i = 0; i < 10; ++i) tracker.record(s);
  }
  tracker.roll_window();
  auto performed = sys.extend_for_load(tracker);
  ASSERT_TRUE(performed.ok());
  EXPECT_EQ(performed.value(), 0u);
}

TEST(ExtendForLoadTest, RejectsBadOptions) {
  GredSystem sys = make_system(topology::ring(4), 1);
  obs::SwitchLoadTracker tracker(4);
  LoadExtensionOptions bad;
  bad.hot_factor = 0.5;
  EXPECT_FALSE(sys.extend_for_load(tracker, bad).ok());
  bad.hot_factor = std::nan("");
  EXPECT_FALSE(sys.extend_for_load(tracker, bad).ok());
  // max_extensions == 0 is a valid "do nothing" budget, not an error.
  LoadExtensionOptions none;
  none.max_extensions = 0;
  auto r = sys.extend_for_load(tracker, none);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u);
}

// ---------- hotspot workload ----------

workload::HotspotOptions small_options() {
  workload::HotspotOptions o;
  o.universe = 200;
  o.grid = 2;
  o.zipf_exponent = 1.1;
  o.diurnal_period_ms = 10.0;
  return o;
}

std::vector<geometry::Point2D> quadrant_switches() {
  // One switch per 2x2 region, at the region centers.
  return {{0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75}};
}

TEST(HotspotWorkloadTest, RegionOfClampsAndPartitions) {
  const workload::HotspotWorkload w(small_options(), quadrant_switches());
  EXPECT_EQ(w.region_of({0.1, 0.1}), 0u);
  EXPECT_EQ(w.region_of({0.9, 0.1}), 1u);
  EXPECT_EQ(w.region_of({0.1, 0.9}), 2u);
  EXPECT_EQ(w.region_of({0.9, 0.9}), 3u);
  // Out-of-range and NaN inputs clamp instead of indexing out of
  // bounds.
  EXPECT_EQ(w.region_of({-0.5, 2.0}), 2u);
  EXPECT_EQ(w.region_of({std::nan(""), 0.1}), 0u);
}

TEST(HotspotWorkloadTest, KeyRegionsMatchHashedPositions) {
  const workload::HotspotWorkload w(small_options(), quadrant_switches());
  for (std::size_t k = 0; k < w.ids().size(); ++k) {
    const crypto::SpacePoint p = crypto::DataKey(w.ids()[k]).position();
    EXPECT_EQ(w.key_region(k), w.region_of({p.x, p.y}));
  }
  // 200 hashed keys land in all four quadrants.
  EXPECT_EQ(w.occupied_region_count(), 4u);
}

TEST(HotspotWorkloadTest, ActiveRegionRotates) {
  const workload::HotspotWorkload w(small_options(), quadrant_switches());
  const std::size_t occ = w.occupied_region_count();
  const std::size_t first = w.active_region(0.0);
  EXPECT_EQ(w.active_region(5.0), first);  // same 10 ms period
  EXPECT_NE(w.active_region(10.0), first);
  EXPECT_EQ(w.active_region(10.0 * static_cast<double>(occ)), first);
}

TEST(HotspotWorkloadTest, FullLocalityTargetsActiveRegion) {
  workload::HotspotOptions o = small_options();
  o.locality = 1.0;
  const workload::HotspotWorkload w(o, quadrant_switches());
  Rng rng(41);
  for (const double t : {0.0, 15.0, 25.0, 35.0}) {
    const std::size_t active = w.active_region(t);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(w.key_region(w.sample_key(t, rng)), active);
    }
  }
}

TEST(HotspotWorkloadTest, FullIngressLocalityStaysInRegion) {
  workload::HotspotOptions o = small_options();
  o.ingress_locality = 1.0;
  const workload::HotspotWorkload w(o, quadrant_switches());
  Rng rng(42);
  for (std::size_t k = 0; k < 50; ++k) {
    const std::size_t sw = w.sample_ingress(k, rng);
    // One switch per region at the region's center: the ingress region
    // equals the key's region.
    EXPECT_EQ(w.region_of(quadrant_switches()[sw]), w.key_region(k));
  }
}

TEST(HotspotWorkloadTest, TraceIsDeterministicAndWellFormed) {
  const workload::HotspotWorkload w(small_options(), quadrant_switches());
  Rng rng_a(43);
  Rng rng_b(43);
  const auto ta = w.retrieval_trace(300, rng_a);
  const auto tb = w.retrieval_trace(300, rng_b);
  ASSERT_EQ(ta.size(), 300u);
  double prev = 0.0;
  std::set<std::string> universe(w.ids().begin(), w.ids().end());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].kind, workload::Op::Kind::kRetrieve);
    EXPECT_EQ(ta[i].data_id, tb[i].data_id);
    EXPECT_EQ(ta[i].access_switch, tb[i].access_switch);
    EXPECT_DOUBLE_EQ(ta[i].at_ms, tb[i].at_ms);
    EXPECT_GT(ta[i].at_ms, prev);
    prev = ta[i].at_ms;
    EXPECT_LT(ta[i].access_switch, 4u);
    EXPECT_TRUE(universe.count(ta[i].data_id));
  }
}

TEST(HotspotWorkloadTest, RegionDemandIsADistribution) {
  const workload::HotspotWorkload w(small_options(), quadrant_switches());
  const std::vector<double> demand = w.region_demand();
  ASSERT_EQ(demand.size(), w.region_count());
  double total = 0.0;
  for (double d : demand) {
    EXPECT_GE(d, 0.0);
    total += d;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HotspotWorkloadDeathTest, RejectsDegenerateOptions) {
  workload::HotspotOptions zero_universe = small_options();
  zero_universe.universe = 0;
  EXPECT_DEATH(workload::HotspotWorkload(zero_universe, quadrant_switches()),
               "invariant violated");
  workload::HotspotOptions bad_locality = small_options();
  bad_locality.locality = 1.5;
  EXPECT_DEATH(workload::HotspotWorkload(bad_locality, quadrant_switches()),
               "invariant violated");
  workload::HotspotOptions zero_period = small_options();
  zero_period.diurnal_period_ms = 0.0;
  EXPECT_DEATH(workload::HotspotWorkload(zero_period, quadrant_switches()),
               "invariant violated");
  EXPECT_DEATH(workload::HotspotWorkload(small_options(), {}),
               "invariant violated");
}

// ---------- delay model cache path ----------

TEST(DelayExperimentCacheTest, CachedRequestsChargeCacheService) {
  GredSystem sys = make_system(topology::grid(4, 4), 2);
  HotKeyCache& cache = sys.network().enable_hot_key_cache();
  Rng rng(51);
  std::vector<RetrievalRequest> requests;
  for (int i = 0; i < 30; ++i) {
    const std::string id = "delay-" + std::to_string(i);
    ASSERT_TRUE(sys.place(id, "v" + std::to_string(i), rng.next_below(16))
                    .ok());
    const SwitchId ingress = rng.next_below(16);
    ASSERT_TRUE(sys.retrieve(id, ingress).ok());  // learn-mode warm
    requests.push_back({id, ingress, static_cast<double>(i) * 10.0});
  }
  cache.set_mode(HotKeyCache::Mode::kServe);

  DelayModelOptions opt;
  opt.cache_service_ms = 0.02;
  RetrievalDelayExperiment experiment(sys, opt);
  auto out = experiment.run(requests);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().not_found, 0u);
  // Every request was warmed at its own ingress: all served from the
  // cache, each costing exactly the cache service time (requests are
  // 10 ms apart, so nothing queues).
  EXPECT_EQ(out.value().cache_hits, requests.size());
  EXPECT_NEAR(out.value().delay.p50, 0.02, 1e-9);
  EXPECT_NEAR(out.value().delay.max, 0.02, 1e-9);

  // Same requests with the cache disabled: all routed, none cached.
  cache.set_enabled(false);
  auto uncached = experiment.run(requests);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached.value().cache_hits, 0u);
  EXPECT_GT(uncached.value().delay.p50, 0.02);
}

}  // namespace
}  // namespace gred::core
