// Sharded data-plane tests: Morton partitioner determinism, SPSC ring
// FIFO/capacity/wraparound (single- and two-threaded), the validated
// GRED_THREADS/GRED_SHARDS parsing, the three-way differential
// (sharded runtime vs compiled fast path vs the oracle, reference_route
// over Switch::process) on random Waxman substrates, shard-count
// invariance, and the open-loop sustained-load round.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/shard_partition.hpp"
#include "common/spsc_ring.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "sden/network.hpp"
#include "sden/reference_router.hpp"
#include "shard/sharded_data_plane.hpp"
#include "topology/waxman.hpp"

namespace gred {
namespace {

topology::EdgeNetwork make_net(std::size_t switches, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  topology::EdgeNetwork net(std::move(topo).value().graph);
  for (std::size_t s = 0; s < switches; ++s) {
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

/// Places `items` data ids through the fast path and returns the
/// retrieval packets plus random ingresses for them.
void seed_storage(core::GredSystem& sys, std::size_t n, std::size_t items,
                  std::uint64_t seed, std::vector<sden::Packet>* pkts,
                  std::vector<sden::SwitchId>* ingresses) {
  sden::SdenNetwork& net = sys.network();
  Rng rng(seed);
  sden::RouteResult scratch;
  sden::Packet p;
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id = "sh-" + std::to_string(seed) + "-" +
                           std::to_string(i);
    p = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
    net.route(p, rng.next_below(n), scratch);
    ASSERT_TRUE(scratch.status.ok()) << id;
    pkts->push_back(make_packet(id, sden::PacketType::kRetrieval));
    ingresses->push_back(rng.next_below(n));
  }
}

// --- Morton partitioner -------------------------------------------------

TEST(ShardPartition, DeterministicBalancedContiguous) {
  Rng rng(77);
  const std::size_t n = 103;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  std::vector<unsigned char> valid(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(-3.0, 5.0);
    ys[i] = rng.uniform(10.0, 11.0);
  }
  valid[17] = 0;  // one position-less node sorts to the tail
  for (const std::size_t shards : {1u, 2u, 5u, 8u}) {
    const auto a =
        partition_by_position(xs.data(), ys.data(), valid.data(), n, shards);
    const auto b =
        partition_by_position(xs.data(), ys.data(), valid.data(), n, shards);
    EXPECT_EQ(a, b) << shards;  // deterministic
    ASSERT_EQ(a.size(), n);
    std::vector<std::size_t> sizes(shards, 0);
    for (const std::uint32_t s : a) {
      ASSERT_LT(s, shards);
      ++sizes[s];
    }
    // Runs differ in size by at most one.
    for (const std::size_t sz : sizes) {
      EXPECT_GE(sz, n / shards);
      EXPECT_LE(sz, n / shards + 1);
    }
  }
}

TEST(ShardPartition, ClampsShardCount) {
  std::vector<double> xs = {0.0, 1.0, 2.0};
  std::vector<double> ys = {0.0, 1.0, 2.0};
  const auto over = partition_by_position(xs.data(), ys.data(), nullptr,
                                          xs.size(), 99);
  for (const std::uint32_t s : over) EXPECT_LT(s, 3u);
  const auto zero =
      partition_by_position(xs.data(), ys.data(), nullptr, xs.size(), 0);
  for (const std::uint32_t s : zero) EXPECT_EQ(s, 0u);
  EXPECT_TRUE(partition_by_position(nullptr, nullptr, nullptr, 0, 4).empty());
}

TEST(ShardPartition, MortonKeyInterleavesCoordinates) {
  // x occupies even bits, y odd bits; the origin is key 0 and the far
  // corner saturates both 21-bit lanes.
  EXPECT_EQ(morton_key_2d(0.0, 0.0), 0u);
  EXPECT_EQ(morton_key_2d(1.0, 0.0) & 0xaaaaaaaaaaaaaaaaULL, 0u);
  EXPECT_EQ(morton_key_2d(0.0, 1.0) & 0x5555555555555555ULL, 0u);
  EXPECT_EQ(morton_key_2d(1.0, 1.0),
            morton_key_2d(1.0, 0.0) | morton_key_2d(0.0, 1.0));
}

// --- SPSC ring ----------------------------------------------------------

TEST(SpscRing, FifoCapacityAndWraparound) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);  // rounded up to a power of two
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(ring.push(v));
  EXPECT_FALSE(ring.push(99));  // full keeps the item
  int out = -1;
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);  // FIFO
  }
  EXPECT_FALSE(ring.pop(out));
  EXPECT_TRUE(ring.empty());

  // Many push/pop cycles wrap the indices far past the capacity.
  for (int v = 0; v < 1000; ++v) {
    ASSERT_TRUE(ring.push(v));
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
}

TEST(SpscRing, BatchedPushPop) {
  SpscRing<int> ring(8);
  const int items[6] = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(ring.push_batch(items, 6), 6u);
  int out[8] = {};
  EXPECT_EQ(ring.pop_batch(out, 3), 3u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[2], 12);
  // Partial acceptance when the batch exceeds the free slots.
  const int more[8] = {20, 21, 22, 23, 24, 25, 26, 27};
  EXPECT_EQ(ring.push_batch(more, 8), 5u);
  EXPECT_EQ(ring.pop_batch(out, 8), 8u);
  EXPECT_EQ(out[0], 13);
  EXPECT_EQ(out[7], 24);
}

TEST(SpscRing, TwoThreadHandoffPreservesOrder) {
  SpscRing<std::uint32_t> ring(64);
  constexpr std::uint32_t kItems = 20000;
  std::thread producer([&] {
    for (std::uint32_t v = 0; v < kItems; ++v) {
      while (!ring.push(v)) std::this_thread::yield();
    }
  });
  std::uint32_t expected = 0;
  std::uint32_t buf[16];
  while (expected < kItems) {
    const std::size_t n = ring.pop_batch(buf, 16);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- Validated parallelism knobs ----------------------------------------

TEST(EnvParallelism, AcceptsPlainIntegersInRange) {
  ::setenv("GRED_TEST_PAR", "16", 1);
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 16u);
  ::setenv("GRED_TEST_PAR", "1", 1);
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 1u);
  ::unsetenv("GRED_TEST_PAR");
  EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 0u);  // unset: use fallback
}

TEST(EnvParallelism, RejectsGarbageZeroAndAbsurd) {
  for (const char* bad : {"8x", "x8", "-3", "+4", " 5", "5 ", "", "0",
                          "1e3", "0x10", "99999999"}) {
    ::setenv("GRED_TEST_PAR", bad, 1);
    EXPECT_EQ(env_parallelism("GRED_TEST_PAR"), 0u) << "'" << bad << "'";
  }
  ::setenv("GRED_TEST_PAR", "junk", 1);
  EXPECT_GE(env_parallelism_or_hardware("GRED_TEST_PAR"), 1u);
  ::unsetenv("GRED_TEST_PAR");
}

TEST(EnvParallelism, GredShardsDrivesDefaultShardCount) {
  ::setenv("GRED_SHARDS", "3", 1);
  EXPECT_EQ(shard::default_shard_count(), 3u);
  ::setenv("GRED_SHARDS", "nonsense", 1);
  EXPECT_GE(shard::default_shard_count(), 1u);  // logged fallback
  ::unsetenv("GRED_SHARDS");
  EXPECT_GE(shard::default_shard_count(), 1u);
}

// --- Three-way differential ---------------------------------------------

// The sharded runtime must produce the exact RouteResult of the
// compiled fast path and of the oracle for every packet, on several
// random Waxman substrates. (The test id predates the retired
// seed-style walk, the fourth router it once compared.)
TEST(ShardDifferential, FourWayBitIdentical) {
  for (const std::size_t n : {24u, 64u}) {
    for (const std::uint64_t seed : {901u, 902u}) {
      auto sys = core::GredSystem::create(make_net(n, seed),
                                          core::VirtualSpaceOptions{});
      ASSERT_TRUE(sys.ok());
      sden::SdenNetwork& net = sys.value().network();

      std::vector<sden::Packet> pkts;
      std::vector<sden::SwitchId> ingresses;
      seed_storage(sys.value(), n, 40, seed * 13, &pkts, &ingresses);

      shard::ShardedDataPlane plane(net, 3);
      std::vector<sden::RouteResult> sharded(pkts.size());
      plane.replay(pkts.data(), ingresses.data(), pkts.size(),
                   sharded.data());

      sden::RouteResult fast;
      sden::Packet scratch;
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        const std::string what =
            "pkt " + std::to_string(i) + " n=" + std::to_string(n);
        scratch = pkts[i];
        net.route(scratch, ingresses[i], fast);
        expect_identical(sharded[i], fast, "fast " + what);
        const sden::RouteResult live =
            sden::reference_route(net, pkts[i], ingresses[i]);
        expect_identical(sharded[i], live, "oracle " + what);
      }
    }
  }
}

TEST(ShardDifferential, OutOfRangeIngressMatchesRoute) {
  auto sys = core::GredSystem::create(make_net(16, 910),
                                      core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();
  std::vector<sden::Packet> pkts = {
      make_packet("oor", sden::PacketType::kRetrieval)};
  std::vector<sden::SwitchId> ingresses = {9999};

  shard::ShardedDataPlane plane(net, 2);
  std::vector<sden::RouteResult> sharded(1);
  plane.replay(pkts.data(), ingresses.data(), 1, sharded.data());

  sden::RouteResult fast;
  sden::Packet scratch = pkts[0];
  net.route(scratch, ingresses[0], fast);
  expect_identical(sharded[0], fast, "out-of-range ingress");
  EXPECT_EQ(sharded[0].status.error().code, ErrorCode::kOutOfRange);
}

// --- Shard-count invariance ---------------------------------------------

TEST(ShardInvariance, ResultsIndependentOfShardCount) {
  const std::size_t n = 48;
  auto sys = core::GredSystem::create(make_net(n, 920),
                                      core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  seed_storage(sys.value(), n, 64, 921, &pkts, &ingresses);

  shard::ShardedDataPlane one(net, 1);
  std::vector<sden::RouteResult> base(pkts.size());
  one.replay(pkts.data(), ingresses.data(), pkts.size(), base.data());
  {
    // With one shard every hop is local and nothing crosses.
    const shard::RoundStats st = one.last_round_stats();
    EXPECT_EQ(st.cross_handoffs, 0u);
    EXPECT_EQ(st.overflow_spills, 0u);
    EXPECT_EQ(st.completed_per_shard, std::vector<std::size_t>{pkts.size()});
  }

  std::size_t total_hops = 0;
  for (const sden::RouteResult& r : base) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.found);
    total_hops += r.hop_count();
  }

  for (const std::size_t shards : {2u, 4u, 7u}) {
    shard::ShardedDataPlane plane(net, shards);
    EXPECT_EQ(plane.shard_count(), shards);
    std::vector<sden::RouteResult> got(pkts.size());
    plane.replay(pkts.data(), ingresses.data(), pkts.size(), got.data());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      expect_identical(got[i], base[i],
                       "shards=" + std::to_string(shards) + " pkt " +
                           std::to_string(i));
    }
    // Every committed hop is either shard-local or one cross-shard
    // handoff; the two counters partition the total exactly.
    const shard::RoundStats st = plane.last_round_stats();
    EXPECT_EQ(st.local_hops + st.cross_handoffs, total_hops)
        << "shards=" << shards;
    std::size_t completed = 0;
    for (const std::size_t c : st.completed_per_shard) completed += c;
    EXPECT_EQ(completed, pkts.size());
  }
}

TEST(ShardInvariance, RecompileTracksControlPlaneChanges) {
  const std::size_t n = 24;
  auto sys = core::GredSystem::create(make_net(n, 930),
                                      core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  shard::ShardedDataPlane plane(net, 3);

  // Store after construction: storage is data-plane state, not plan
  // state.
  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  seed_storage(sys.value(), n, 8, 931, &pkts, &ingresses);
  std::vector<sden::RouteResult> got(pkts.size());
  sden::RouteResult fast;
  sden::Packet scratch;
  // Every replay matches the fast path on the current network. Nothing
  // refreshes the shard plans by hand: each round syncs them with the
  // network.
  const auto replay_matches = [&](const std::string& when) {
    plane.replay(pkts.data(), ingresses.data(), pkts.size(), got.data());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      scratch = pkts[i];
      net.route(scratch, ingresses[i], fast);
      expect_identical(got[i], fast, when + " pkt " + std::to_string(i));
    }
  };
  replay_matches("initial");

  // New links between non-adjacent switches reroute greedy walks and
  // virtual links.
  Rng rng(932);
  for (std::size_t added = 0; added < 6;) {
    const sden::SwitchId u = rng.next_below(n);
    const sden::SwitchId v = rng.next_below(n);
    if (u == v || net.description().switches().has_edge(u, v)) continue;
    ASSERT_TRUE(sys.value().add_link(u, v).ok());
    ++added;
  }
  replay_matches("after add_link");

  // A joining switch brings a new id that some shard must adopt.
  ASSERT_TRUE(sys.value().add_switch({0, 1}, /*servers=*/1).ok());
  replay_matches("after add_switch");
}

// --- Open-loop sustained load -------------------------------------------

TEST(ShardSustainedLoad, CompletesAllArrivalsWithNonNegativeLatency) {
  const std::size_t n = 32;
  auto sys = core::GredSystem::create(make_net(n, 940),
                                      core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  seed_storage(sys.value(), n, 48, 941, &pkts, &ingresses);

  for (const bool poisson : {true, false}) {
    shard::ShardedDataPlane plane(net, 2);
    std::vector<sden::RouteResult> got(pkts.size());
    std::vector<double> latencies(pkts.size(), -2.0);
    const shard::LoadResult lr = plane.sustained_load(
        pkts.data(), ingresses.data(), pkts.size(), got.data(),
        /*rate_pps=*/50000.0, poisson, /*seed=*/42, latencies.data());
    EXPECT_EQ(lr.completed, pkts.size());
    EXPECT_GT(lr.duration_s, 0.0);
    EXPECT_GT(lr.achieved_pps, 0.0);

    sden::RouteResult fast;
    sden::Packet scratch;
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      EXPECT_TRUE(got[i].status.ok());
      EXPECT_GE(latencies[i], 0.0) << i;
      scratch = pkts[i];
      net.route(scratch, ingresses[i], fast);
      expect_identical(got[i], fast,
                       "open-loop pkt " + std::to_string(i) +
                           (poisson ? " poisson" : " fixed"));
    }
  }
}

}  // namespace
}  // namespace gred
