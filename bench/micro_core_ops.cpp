// Microbenchmarks (google-benchmark) for the primitive operations every
// placement/retrieval touches: hashing, key derivation, the control
// plane's embedding/DT pipeline, nearest-site queries and
// C-regulation, greedy routing, the hot-key cache's probe and fill,
// Chord lookups, a full data-plane walk, and the sharded runtime's SPSC
// handoff primitives.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench_util.hpp"
#include "common/spsc_ring.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "geometry/argmin.hpp"
#include "geometry/cvt.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "geometry/site_grid.hpp"
#include "graph/shortest_path.hpp"
#include "linalg/mds.hpp"
#include "sden/hot_key_cache.hpp"
#include "sden/plan_walk.hpp"
#include "sden/route_plan.hpp"
#include "topology/waxman.hpp"

using namespace gred;

namespace {

// SHA-256 as requests hash (hw:1: the SHA-NI block function where the
// CPU has it) or through the scalar fallback and oracle (hw:0).
crypto::Digest hash(benchmark::State& state, const std::string& msg) {
  return state.range(0) != 0 ? crypto::sha256(msg)
                             : crypto::sha256_scalar(msg.data(), msg.size());
}

void label_path(benchmark::State& state) {
  if (state.range(0) != 0 && !crypto::sha256_hardware()) {
    state.SetLabel("no SHA-NI: scalar");
  }
}

/// perfbench's deployment shape at n switches (Waxman, topology seed
/// 2019, minimum degree 3, 4 servers per switch), brought up with
/// `options`; at n = 128 with the default options it is perfbench's
/// own deployment.
Result<core::GredSystem> deployment(std::size_t n,
                                    const core::VirtualSpaceOptions& options) {
  Rng topo_rng(2019);
  topology::WaxmanOptions opt;
  opt.node_count = n;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, topo_rng);
  if (!topo.ok()) return topo.error();
  return core::GredSystem::create(
      topology::uniform_edge_network(std::move(topo).value().graph, 4),
      options);
}

void BM_Sha256_64B(benchmark::State& state) {
  const std::string msg(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(state, msg));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 64);
  label_path(state);
}
BENCHMARK(BM_Sha256_64B)->ArgName("hw")->Arg(0)->Arg(1);

void BM_Sha256_4KiB(benchmark::State& state) {
  const std::string msg(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(state, msg));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 4096);
  label_path(state);
}
BENCHMARK(BM_Sha256_4KiB)->ArgName("hw")->Arg(0)->Arg(1);

void BM_DataKeyDerivation(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    crypto::DataKey key(hash(state, "item-" + std::to_string(i++)));
    benchmark::DoNotOptimize(key.position());
  }
  label_path(state);
}
BENCHMARK(BM_DataKeyDerivation)->ArgName("hw")->Arg(0)->Arg(1);

void BM_DelaunayBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  std::vector<geometry::Point2D> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  for (auto _ : state) {
    auto dt = geometry::DelaunayTriangulation::build(pts);
    benchmark::DoNotOptimize(dt);
  }
}
BENCHMARK(BM_DelaunayBuild)
    ->Arg(50)
    ->Arg(100)
    ->Arg(128)
    ->Arg(200)
    ->Arg(1024);

// One predicate call on random points in general position: the
// double-precision filter (exact:0), which decides all of them, or its
// __float128 fallback and oracle (exact:1).
constexpr std::size_t kPredicateMask = 1023;

std::vector<geometry::Point2D> predicate_points() {
  Rng rng(43);
  std::vector<geometry::Point2D> pts(kPredicateMask + 1);
  for (auto& p : pts) p = {rng.next_double(), rng.next_double()};
  return pts;
}

void BM_Orient2d(benchmark::State& state) {
  const std::vector<geometry::Point2D> pts = predicate_points();
  const bool exact = state.range(0) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i & kPredicateMask];
    const auto& b = pts[(i + 1) & kPredicateMask];
    const auto& c = pts[(i + 2) & kPredicateMask];
    benchmark::DoNotOptimize(exact ? geometry::orient2d_exact(a, b, c)
                                   : geometry::orient2d(a, b, c));
    i += 3;
  }
}
BENCHMARK(BM_Orient2d)->ArgName("exact")->Arg(0)->Arg(1);

void BM_InCircumcircle(benchmark::State& state) {
  const std::vector<geometry::Point2D> pts = predicate_points();
  const bool exact = state.range(0) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i & kPredicateMask];
    const auto& b = pts[(i + 1) & kPredicateMask];
    const auto& c = pts[(i + 2) & kPredicateMask];
    const auto& p = pts[(i + 3) & kPredicateMask];
    benchmark::DoNotOptimize(exact
                                 ? geometry::in_circumcircle_exact(a, b, c, p)
                                 : geometry::in_circumcircle(a, b, c, p));
    i += 4;
  }
}
BENCHMARK(BM_InCircumcircle)->ArgName("exact")->Arg(0)->Arg(1);

void BM_ClassicalMds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 1,
                      .topology_seed = 900 + n});
  const auto apsp = graph::all_pairs_shortest_paths(net.switches());
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) dist(i, j) = apsp.dist(i, j);
  }
  for (auto _ : state) {
    auto mds = linalg::classical_mds(dist, 2);
    benchmark::DoNotOptimize(mds);
  }
}
BENCHMARK(BM_ClassicalMds)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_ControlPlaneFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .topology_seed = 910 + n});
  for (auto _ : state) {
    auto sys = core::GredSystem::create(net, bench::gred_options(50));
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_ControlPlaneFull)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SiteGridNearest(benchmark::State& state) {
  // SiteGrid::nearest as its callers run it (C-regulation's samples,
  // the controller's home lookups): uniform queries over the
  // C-regulated positions of perfbench's deployment shape at n
  // switches (at n = 128, perfbench's own positions), 64K seeded
  // queries in turn. Time is ns per query.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto sys = deployment(n, {});
  if (!sys.ok()) {
    state.SkipWithError("system creation failed");
    return;
  }
  const geometry::SiteGrid grid(
      sys.value().controller().space().positions(),
      geometry::Rect{0.0, 0.0, 1.0, 1.0});
  constexpr std::size_t kQueries = 1 << 16;  // power of two: masked cycling
  Rng rng(14);
  std::vector<geometry::Point2D> queries(kQueries);
  for (geometry::Point2D& q : queries) {
    q = {rng.next_double(), rng.next_double()};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.nearest(queries[i]));
    i = (i + 1) & (kQueries - 1);
  }
}
BENCHMARK(BM_SiteGridNearest)->ArgName("sites")->Arg(128)->Arg(1024);

void BM_CRegulation(benchmark::State& state) {
  // One whole C-regulation as set-up runs it (Algorithm 1, T = 50
  // iterations x 1,000 samples, the default seed), on one thread, from
  // the pre-CVT positions of perfbench's deployment (its embedding
  // with C-regulation off). Each sample is one SiteGrid::nearest
  // query; each iteration builds one grid.
  auto sys = deployment(128, bench::nocvt_options());
  if (!sys.ok()) {
    state.SkipWithError("system creation failed");
    return;
  }
  const std::vector<geometry::Point2D> initial =
      sys.value().controller().space().positions();
  const core::VirtualSpaceOptions defaults;
  ThreadPool serial(1);
  geometry::CvtOptions cvt;
  cvt.samples_per_iteration = defaults.cvt_samples;
  cvt.max_iterations = defaults.cvt_iterations;
  cvt.pool = &serial;
  for (auto _ : state) {
    Rng rng(defaults.seed);
    benchmark::DoNotOptimize(geometry::c_regulation(initial, cvt, rng));
  }
}
BENCHMARK(BM_CRegulation)->Unit(benchmark::kMillisecond);

void BM_GredPlacementWalk(benchmark::State& state) {
  const topology::EdgeNetwork net =
      bench::network({.switches = 100, .topology_seed = 920});
  auto sys = core::GredSystem::create(net, bench::gred_options(50));
  if (!sys.ok()) state.SkipWithError("system creation failed");
  Rng rng(5);
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = sys.value().place("bench-" + std::to_string(i++), "",
                               rng.next_below(100));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GredPlacementWalk);

void BM_FlowTableRelayLookup(benchmark::State& state) {
  // A relay table the size GRED installs on busy transit switches; the
  // indexed find_relay is a single flat-map probe regardless of size.
  sden::FlowTable table;
  const std::size_t entries = 64;
  for (std::size_t i = 0; i < entries; ++i) {
    table.add_relay({i, i + 1, i + 2, 1000 + i});
  }
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find_relay(1000 + rng.next_below(entries)));
  }
}
BENCHMARK(BM_FlowTableRelayLookup);

void BM_PlanGreedyStep(benchmark::State& state) {
  // One greedy forwarding decision (Algorithm 2) as routes run it:
  // sden::plan_step at a random switch of a plan compiled from an
  // n-switch Waxman GredSystem, toward a random data position. The
  // `candidates` counter is the mean candidate count of the stepped
  // switches, the k of the argmin. The 1,024 cases repeat in a cycle,
  // which the branch predictor learns, so this reads about 3x below a
  // step of a real walk; BM_PlanWalk times that.
  const auto n = static_cast<std::size_t>(state.range(0));
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 4,
                      .topology_seed = 970 + n});
  auto sys = core::GredSystem::create(net, bench::gred_options(50));
  if (!sys.ok()) {
    state.SkipWithError("system creation failed");
    return;
  }
  const sden::SdenNetwork& network = sys.value().network();
  std::vector<std::uint32_t> owned(n);
  for (std::size_t i = 0; i < n; ++i) owned[i] = static_cast<std::uint32_t>(i);
  sden::RoutePlan plan;
  network.compile_plan_subset(plan, owned.data(), owned.size());

  constexpr std::size_t kCases = 1024;  // power of two: masked cycling
  Rng rng(12);
  std::vector<std::uint32_t> at(kCases);
  std::vector<sden::Packet> pkts(kCases);
  double candidates = 0;
  for (std::size_t c = 0; c < kCases; ++c) {
    at[c] = static_cast<std::uint32_t>(rng.next_below(n));
    const crypto::DataKey key("step-" + std::to_string(c));
    pkts[c].target = {key.position().x, key.position().y};
    candidates += static_cast<double>(
        network.const_switch_at(at[c]).table().neighbors().size());
  }
  std::size_t c = 0;
  for (auto _ : state) {
    sden::Packet& pkt = pkts[c];
    pkt.clear_virtual_link();  // a taken DT edge enters a virtual link
    benchmark::DoNotOptimize(sden::plan_step(plan, at[c], pkt, nullptr));
    c = (c + 1) & (kCases - 1);
  }
  state.counters["candidates"] = candidates / static_cast<double>(kCases);
}
BENCHMARK(BM_PlanGreedyStep)->Arg(64)->Arg(256);

void BM_PlanWalk(benchmark::State& state) {
  // Whole compiled walks, greedy steps and relay hops, from ingress to
  // the delivering switch (no delivery): sden::plan_step over the plan
  // of perfbench's deployment (128-switch Waxman, seed 2019, minimum
  // degree 3, 4 servers per switch), for 64K seeded (ingress, key)
  // pairs walked in turn. Unlike BM_PlanGreedyStep's 1,024 cyclic
  // single steps, whose argmin winners, virtual-link entries and
  // progress checks the branch predictor learns (about 3x faster per
  // step), 64K random walks are as unpredictable as perfbench's reads.
  // Time is ns per route; counters: ns/step, steps/route, and
  // relay_share, the share of steps that were relay hops. /simd:1 runs
  // the argmin requests use (AVX2 where CPUID reports it), /simd:0 the
  // scalar loop.
  auto sys = deployment(128, {});
  if (!sys.ok()) {
    state.SkipWithError("system creation failed");
    return;
  }
  const sden::SdenNetwork& network = sys.value().network();
  const std::size_t n = network.switch_count();
  std::vector<std::uint32_t> owned(n);
  for (std::size_t i = 0; i < n; ++i) owned[i] = static_cast<std::uint32_t>(i);
  sden::RoutePlan plan;
  network.compile_plan_subset(plan, owned.data(), owned.size());

  constexpr std::size_t kPairs = 1 << 16;  // power of two: masked cycling
  Rng rng(13);
  std::vector<std::uint32_t> ingress(kPairs);
  std::vector<geometry::Point2D> target(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    ingress[i] = static_cast<std::uint32_t>(rng.next_below(n));
    const crypto::DataKey key("walk-" + std::to_string(i));
    target[i] = {key.position().x, key.position().y};
  }
  const bool simd = state.range(0) != 0 && geometry::kAvx2Argmin;
  const std::size_t max_hops = network.max_route_hops();
  sden::Packet pkt;
  std::size_t steps = 0;
  std::size_t relay_steps = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    pkt.clear_virtual_link();
    pkt.target = target[i];
    std::uint32_t cur = ingress[i];
    for (std::size_t s = 0; s < max_hops; ++s) {
      relay_steps += static_cast<std::size_t>(pkt.on_virtual_link() &&
                                              pkt.vlink_dest != cur);
      ++steps;
      const sden::PlanStep st = sden::plan_step(plan, cur, pkt, nullptr, simd);
      if (st.kind != sden::PlanStep::Kind::kHop) break;
      cur = st.next;
    }
    benchmark::DoNotOptimize(cur);
    i = (i + 1) & (kPairs - 1);
  }
  const auto total = static_cast<double>(steps);
  state.counters["ns/step"] = benchmark::Counter(
      total, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["steps/route"] =
      benchmark::Counter(total, benchmark::Counter::kAvgIterations);
  state.counters["relay_share"] =
      total > 0 ? static_cast<double>(relay_steps) / total : 0.0;
  if (state.range(0) != 0 && !geometry::kAvx2Argmin) {
    state.SetLabel("no AVX2: scalar");
  }
}
BENCHMARK(BM_PlanWalk)->ArgName("simd")->Arg(0)->Arg(1);

// The hot-key cache at perfbench skew's shape: 128 switches of 16 ways,
// the sets of the 8 ingress switches full, 64-byte payloads. Each
// iteration takes the next of 4,096 seeded (switch, key) pairs, so the
// set and the way vary as they do under Zipf reads.
constexpr std::size_t kCacheWays = 16;
constexpr std::size_t kCacheIngress = 8;
constexpr std::size_t kCachePairs = 1 << 12;  // power of two: masked cycling

crypto::Digest cache_key(std::size_t sw, std::size_t i) {
  return crypto::DataKey("cache-" + std::to_string(sw) + "-" +
                         std::to_string(i))
      .digest();
}

/// Fills each ingress set with keys 0..15 of its switch and draws the
/// (switch, key) pairs: with `resident`, keys the switch's set holds;
/// otherwise keys no set holds.
void make_cache_pairs(sden::HotKeyCache& cache, const std::string& payload,
                      bool resident, std::vector<sden::SwitchId>& sw,
                      std::vector<crypto::Digest>& key) {
  for (std::size_t s = 0; s < kCacheIngress; ++s) {
    for (std::size_t w = 0; w < kCacheWays; ++w) {
      cache.insert(static_cast<sden::SwitchId>(s), cache_key(s, w), payload,
                   static_cast<sden::SwitchId>(s), 0);
    }
  }
  Rng rng(17);
  sw.resize(kCachePairs);
  key.resize(kCachePairs);
  for (std::size_t i = 0; i < kCachePairs; ++i) {
    sw[i] = static_cast<sden::SwitchId>(rng.next_below(kCacheIngress));
    key[i] = cache_key(sw[i], resident ? rng.next_below(kCacheWays)
                                       : kCacheWays + i);
  }
}

void BM_HotKeyCacheProbe(benchmark::State& state) {
  // ns per probe: /hit:1 probes keys the set holds (one tag matches and
  // the way's answer is read), /hit:0 keys it does not (every tag
  // compared, none matches).
  sden::HotKeyCache cache(128, kCacheWays);
  std::vector<sden::SwitchId> sw;
  std::vector<crypto::Digest> key;
  const bool hit = state.range(0) != 0;
  make_cache_pairs(cache, std::string(64, 'p'), hit, sw, key);
  std::size_t i = 0;
  std::int64_t hits = 0;
  for (auto _ : state) {
    const sden::HotKeyCache::Entry* e = cache.probe(sw[i], key[i]);
    benchmark::DoNotOptimize(e);
    hits += e != nullptr ? 1 : 0;
    i = (i + 1) & (kCachePairs - 1);
  }
  if (hits != (hit ? state.iterations() : 0)) {
    state.SkipWithError("a probe hit or missed unexpectedly");
  }
}
BENCHMARK(BM_HotKeyCacheProbe)->ArgName("hit")->Arg(0)->Arg(1);

void BM_HotKeyCacheInsert(benchmark::State& state) {
  // ns per fill of a full set: /evict:1 fills keys the set does not
  // hold (no way is stale, so CLOCK evicts), /evict:0 refreshes keys it
  // holds in place. The payload keeps its size, so no fill allocates.
  sden::HotKeyCache cache(128, kCacheWays);
  std::vector<sden::SwitchId> sw;
  std::vector<crypto::Digest> key;
  const std::string payload(64, 'p');
  make_cache_pairs(cache, payload, state.range(0) == 0, sw, key);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(sw[i], key[i], payload, sw[i], 0));
    i = (i + 1) & (kCachePairs - 1);
  }
}
BENCHMARK(BM_HotKeyCacheInsert)->ArgName("evict")->Arg(0)->Arg(1);

void BM_GredRetrievalFastPath(benchmark::State& state) {
  // Full compiled-plan retrieval walk with reused scratch — the
  // steady-state data-plane unit of work (allocation-free).
  const std::size_t n = 100;
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 4,
                      .topology_seed = 940});
  auto sys = core::GredSystem::create(net, bench::gred_options(50));
  if (!sys.ok()) state.SkipWithError("system creation failed");
  auto& network = sys.value().network();
  Rng rng(7);
  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::string id = "micro-" + std::to_string(i);
    if (!sys.value().place(id, "payload", rng.next_below(n)).ok()) {
      state.SkipWithError("placement failed");
      break;
    }
    sden::Packet p;
    p.type = sden::PacketType::kRetrieval;
    p.data_id = id;
    const crypto::DataKey key(id);
    p.target = {key.position().x, key.position().y};
    p.set_key(key);
    pkts.push_back(p);
    ingresses.push_back(rng.next_below(n));
  }
  sden::RouteResult scratch;
  sden::Packet pkt;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t j = i++ & 511;
    pkt = pkts[j];
    network.route(pkt, ingresses[j], scratch);
    benchmark::DoNotOptimize(scratch.found);
  }
}
BENCHMARK(BM_GredRetrievalFastPath);

void BM_SpscRingPushPop(benchmark::State& state) {
  // Single-item handoff floor with the ring hot in cache: one producer
  // publish (release store) plus one consumer retire, no contention.
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0;
  std::uint64_t out = 0;
  for (auto _ : state) {
    ring.push(v++);
    ring.pop(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBatch64(benchmark::State& state) {
  // Batched variant: one tail publish and one head retire amortized
  // over 64 continuations — the sharded data plane's drain shape.
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t buf[64];
  for (std::uint64_t i = 0; i < 64; ++i) buf[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push_batch(buf, 64));
    benchmark::DoNotOptimize(ring.pop_batch(buf, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SpscRingBatch64);

void BM_SpscCrossThreadHandoff(benchmark::State& state) {
  // Round trip through an echo thread over a ring pair — the real
  // cross-shard cost including the coherence misses the single-thread
  // benchmarks above cannot see. Arg is the batch size per trip
  // (1 = latency-bound, 64 = throughput shape). On an oversubscribed
  // host (1-core CI) this degenerates to scheduler switches; the
  // numbers are still reported honestly.
  const auto batch = static_cast<std::size_t>(state.range(0));
  SpscRing<std::uint64_t> to(1024);
  SpscRing<std::uint64_t> back(1024);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    std::uint64_t buf[64];
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = to.pop_batch(buf, 64);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      std::size_t pushed = 0;
      while (pushed < n) pushed += back.push_batch(buf + pushed, n - pushed);
    }
  });
  std::uint64_t buf[64];
  std::uint64_t v = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) buf[i] = v++;
    std::size_t pushed = 0;
    while (pushed < batch) {
      pushed += to.push_batch(buf + pushed, batch - pushed);
    }
    std::size_t got = 0;
    while (got < batch) {
      const std::size_t n = back.pop_batch(buf + got, batch - got);
      if (n == 0) std::this_thread::yield();
      got += n;
    }
    benchmark::DoNotOptimize(buf[0]);
  }
  stop.store(true, std::memory_order_relaxed);
  echo.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SpscCrossThreadHandoff)->Arg(1)->Arg(64);

void BM_ApspDeltaEdgeToggle(benchmark::State& state) {
  // One incremental control-plane APSP update: add a link, delta-patch
  // the distance matrix, remove it, delta-patch back. Two delta ops per
  // iteration; the matrix provably returns to its original state.
  const auto n = static_cast<std::size_t>(state.range(0));
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 1,
                      .topology_seed = 950 + n});
  graph::Graph g = net.switches();
  graph::ApspResult apsp = graph::all_pairs_shortest_paths(g, true);
  Rng rng(13);
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  for (int tries = 0; tries < 256; ++tries) {
    const graph::NodeId x = rng.next_below(n);
    const graph::NodeId y = rng.next_below(n);
    if (x != y && g.find_edge(x, y) == nullptr) {
      u = x;
      v = y;
      break;
    }
  }
  if (u == v) {
    state.SkipWithError("no non-adjacent pair found");
    return;
  }
  for (auto _ : state) {
    if (!g.add_edge(u, v, 1.0).ok()) {
      state.SkipWithError("add_edge failed");
      break;
    }
    benchmark::DoNotOptimize(graph::apsp_add_edge(apsp, g, u, v));
    g.remove_edge(u, v);
    benchmark::DoNotOptimize(graph::apsp_remove_edge(apsp, g, u, v, 1.0));
  }
}
BENCHMARK(BM_ApspDeltaEdgeToggle)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_DtSiteInsertRemove(benchmark::State& state) {
  // Localized Bowyer-Watson repair: insert a random site into an
  // n-site DT, then remove it — the switch join/leave unit of work on
  // the incremental path (no full rebuild).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(43);
  std::vector<geometry::Point2D> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.next_double(), rng.next_double()});
  }
  auto built = geometry::DelaunayTriangulation::build(pts);
  if (!built.ok()) {
    state.SkipWithError("DT build failed");
    return;
  }
  geometry::DelaunayTriangulation dt = std::move(built).value();
  for (auto _ : state) {
    const geometry::Point2D p{rng.next_double(), rng.next_double()};
    auto idx = dt.insert(p);
    if (!idx.ok() || !dt.remove(idx.value()).ok()) {
      state.SkipWithError("insert/remove failed");
      break;
    }
  }
}
BENCHMARK(BM_DtSiteInsertRemove)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_PlanCompile(benchmark::State& state) {
  // Whole-network route-plan compile (compile_plan_subset over every
  // switch) of an n-switch Waxman GredSystem: what the first route
  // after each dynamics event pays, since every change recompiles the
  // plan whole.
  const auto n = static_cast<std::size_t>(state.range(0));
  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 4,
                      .topology_seed = 960 + n});
  auto sys = core::GredSystem::create(net, bench::gred_options(50));
  if (!sys.ok()) {
    state.SkipWithError("system creation failed");
    return;
  }
  const sden::SdenNetwork& network = sys.value().network();
  std::vector<std::uint32_t> owned(n);
  for (std::size_t i = 0; i < n; ++i) owned[i] = static_cast<std::uint32_t>(i);
  sden::RoutePlan plan;
  for (auto _ : state) {
    network.compile_plan_subset(plan, owned.data(), owned.size());
    benchmark::DoNotOptimize(plan.hot.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlanCompile)
    ->Arg(128)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_ChordLookup(benchmark::State& state) {
  const topology::EdgeNetwork net =
      bench::network({.switches = 100, .topology_seed = 930});
  auto ring = chord::ChordRing::build(net);
  if (!ring.ok()) state.SkipWithError("ring build failed");
  Rng rng(6);
  for (auto _ : state) {
    auto trace = ring.value().lookup(rng.next_below(1000), rng.next_u64());
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_ChordLookup);

}  // namespace

BENCHMARK_MAIN();
