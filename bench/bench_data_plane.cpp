// Data-plane throughput bench: the compiled fast path
// (SdenNetwork::route with reused scratch — compiled route plan,
// allocation-free steady state) against the routing oracle
// (reference_route: the live Switch::process walk with its sequential
// closer_to candidate scan, graph link lookups and a fresh RouteResult
// per packet), plus the sharded runtime (shard/ShardedDataPlane) under
// both closed-loop replay and open-loop sustained load.
//
// Reports packets/sec, ns/hop, p50/p99 route latency, and steady-state
// allocations per packet on 64/256/1024-switch Waxman topologies, the
// thread-pool parallel replay throughput, a shard-count scaling sweep,
// and an open-loop load sweep with queueing-latency percentiles, and
// emits BENCH_data_plane.json:
//
//   n<S>_reference_pkts_per_sec   oracle walk (reference_route)
//   n<S>_fast_pkts_per_sec        compiled fast path, reused scratch
//   n<S>_fast_pkts_per_sec_parallel  pool replay over GRED_THREADS
//   n<S>_speedup                  fast / oracle (same run, same machine)
//   n<S>_ns_per_hop               fast-path time per physical hop
//   n<S>_route_p50_ns / _p99_ns   per-packet fast-path route latency
//   n<S>_allocs_per_packet        heap allocations per steady-state route
//   n<S>_shards<K>_pkts_per_sec   sharded closed-loop replay at K shards
//   n<S>_shards<K>_speedup_vs_1shard
//   n<S>_sharded_identical        1 when every sharded result matched route()
//   n<S>_sharded_allocs_per_packet  sharded steady-state allocations
//   n<S>_load<I>_offered_pps / _achieved_pps  open-loop sweep point I
//   n<S>_load<I>_p50_us / _p99_us / _p999_us  arrival-to-completion latency
//
// Every fast-path result is first checked bit-identical against the
// oracle (reference_route), and every sharded result against the fast
// path, before any number is reported; the fast and sharded steady
// states are asserted allocation-free. All measured sections run after an untimed warm-up
// pass so first-touch costs (lane/result capacity growth, page faults,
// branch training) never land inside a timed region.
//
// `--smoke` shrinks sizes/rounds for CI. `--shards=K` pins the scaling
// sweep to {1, K} instead of the hardware-derived list. `--trace`
// additionally runs each size with the gred::obs layer on (metrics +
// route-trace ring), reports the observed overhead, asserts the traced
// steady state is still allocation-free, and dumps the collected
// observability state to BENCH_data_plane_obs.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "crypto/data_key.hpp"
#include "geometry/point.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sden/network.hpp"
#include "sden/reference_router.hpp"
#include "shard/sharded_data_plane.hpp"

using namespace gred;

// Global allocation counter: the zero-steady-state-alloc assertions and
// the allocs-per-packet metrics both read it. Atomic because the
// sharded sections allocate (or must be shown not to) from worker
// threads, not just the driver.
static std::atomic<std::size_t> g_allocs{0};
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_data_plane: check failed: %s\n", what);
    std::abort();
  }
}

/// Full RouteResult equality, statuses included — the same predicate
/// the differential tests use.
bool results_equal(const sden::RouteResult& a, const sden::RouteResult& b) {
  if (a.status.ok() != b.status.ok()) return false;
  if (!a.status.ok() &&
      (a.status.error().code != b.status.error().code ||
       a.status.error().message != b.status.error().message)) {
    return false;
  }
  return a.switch_path == b.switch_path && a.path_cost == b.path_cost &&
         a.delivered_to == b.delivered_to && a.found == b.found &&
         a.responder == b.responder && a.payload == b.payload;
}

struct ShardPoint {
  std::size_t shards = 0;
  double pps = 0;
  double speedup_vs_1 = 0;
};

struct LoadPoint {
  double offered_pps = 0;
  double achieved_pps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

struct SizeReport {
  double n = 0;
  double reference_pps = 0;
  double fast_pps = 0;
  double fast_pps_parallel = 0;
  double speedup = 0;
  double ns_per_hop = 0;
  double hops_per_packet = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double allocs_per_packet = 0;
  double sharded_allocs_per_packet = 0;
  double sharded_identical = 0;
  std::vector<ShardPoint> shard_points;
  std::vector<LoadPoint> load_points;
  double traced_pps = 0;          ///< --trace only: obs-on throughput
  double trace_overhead_pct = 0;  ///< --trace only: vs obs-off fast path
};

SizeReport run_size(std::size_t n, bool smoke, bool trace,
                    const std::vector<std::size_t>& shard_counts) {
  SizeReport rep;
  rep.n = static_cast<double>(n);

  const topology::EdgeNetwork net =
      bench::network({.switches = n, .servers_per_switch = 4,
                      .topology_seed = 7100 + n});
  auto sys = core::GredSystem::create(net, bench::gred_options(30));
  require(sys.ok(), "GredSystem::create");
  sden::SdenNetwork& network = sys.value().network();

  const std::size_t items = smoke ? 400 : 2000;
  Rng rng(99);
  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  pkts.reserve(items);
  ingresses.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id = "dp-" + std::to_string(i);
    require(sys.value().place(id, "payload-" + id, rng.next_below(n)).ok(),
            "place");
    sden::Packet p;
    p.type = sden::PacketType::kRetrieval;
    p.data_id = id;
    const crypto::DataKey key(id);
    p.target = {key.position().x, key.position().y};
    p.set_key(key);
    pkts.push_back(p);
    ingresses.push_back(rng.next_below(n));
  }

  // --- Warm-up: one untimed full pass so the compiled plan, the
  // scratch capacities, and the touched pages are all hot before any
  // measured (or alloc-asserted) region below. ---
  sden::RouteResult scratch;
  sden::Packet pkt_scratch;
  for (std::size_t i = 0; i < items; ++i) {
    pkt_scratch = pkts[i];
    network.route(pkt_scratch, ingresses[i], scratch);
  }

  // --- Differential: fast path vs the oracle, full RouteResult
  // equality on every packet. The fast results are kept: the sharded
  // section below must match them bit-for-bit. ---
  std::vector<sden::RouteResult> fast_results(items);
  for (std::size_t i = 0; i < items; ++i) {
    pkt_scratch = pkts[i];
    network.route(pkt_scratch, ingresses[i], scratch);
    require(scratch.status.ok() && scratch.found, "fast route");
    const sden::RouteResult live =
        sden::reference_route(network, pkts[i], ingresses[i]);
    require(results_equal(scratch, live), "fast path diverged from oracle");
    fast_results[i] = scratch;
  }

  const std::size_t fast_rounds = smoke ? 5 : (n >= 1024 ? 20 : 100);
  const std::size_t ref_rounds = smoke ? 2 : (n >= 1024 ? 5 : 20);

  // --- Zero-steady-state-alloc assertion + fast throughput. ---
  const std::size_t a0 = g_allocs.load(std::memory_order_relaxed);
  double t0 = now_s();
  std::size_t total = 0;
  std::size_t total_hops = 0;
  for (std::size_t rd = 0; rd < fast_rounds; ++rd) {
    for (std::size_t i = 0; i < items; ++i) {
      pkt_scratch = pkts[i];
      network.route(pkt_scratch, ingresses[i], scratch);
      total_hops += scratch.hop_count();
      ++total;
    }
  }
  double elapsed = now_s() - t0;
  rep.fast_pps = static_cast<double>(total) / elapsed;
  rep.ns_per_hop = elapsed * 1e9 / static_cast<double>(total_hops);
  rep.hops_per_packet =
      static_cast<double>(total_hops) / static_cast<double>(total);
  rep.allocs_per_packet =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - a0) /
      static_cast<double>(total);
  require(g_allocs.load(std::memory_order_relaxed) == a0,
          "steady-state fast path performed a heap allocation");

  // --- Per-packet latency percentiles (timed individually). ---
  {
    std::vector<double> samples;
    samples.reserve(items);
    for (std::size_t i = 0; i < items; ++i) {
      pkt_scratch = pkts[i];
      const auto s0 = std::chrono::steady_clock::now();
      network.route(pkt_scratch, ingresses[i], scratch);
      const auto s1 = std::chrono::steady_clock::now();
      samples.push_back(
          std::chrono::duration<double, std::nano>(s1 - s0).count());
    }
    std::sort(samples.begin(), samples.end());
    rep.p50_ns = samples[samples.size() / 2];
    rep.p99_ns = samples[(samples.size() * 99) / 100];
  }

  // --- Parallel replay: shard the same packets across the pool with
  // per-shard scratch (retrievals route concurrently). One untimed
  // round first so pool wake-up and per-task state are warm. ---
  {
    ThreadPool& pool = global_pool();
    const auto pool_round = [&] {
      pool.parallel_for(0, items, 64, [&](std::size_t lo, std::size_t hi) {
        sden::RouteResult local;
        sden::Packet local_pkt;
        for (std::size_t i = lo; i < hi; ++i) {
          local_pkt = pkts[i];
          network.route(local_pkt, ingresses[i], local);
        }
      });
    };
    pool_round();  // warm-up
    t0 = now_s();
    std::size_t par_total = 0;
    for (std::size_t rd = 0; rd < fast_rounds; ++rd) {
      pool_round();
      par_total += items;
    }
    elapsed = now_s() - t0;
    rep.fast_pps_parallel = static_cast<double>(par_total) / elapsed;
  }

  // --- Sharded closed-loop replay: scaling sweep over shard counts.
  // Every result is required bit-identical to the stored fast-path
  // results, and the steady state (post warm-up) must stay
  // allocation-free across all shard threads. ---
  {
    std::vector<sden::RouteResult> shard_results(items);
    double pps_1shard = 0;
    bool identical = true;
    for (const std::size_t k : shard_counts) {
      shard::ShardedDataPlane plane(network, k);
      plane.replay(pkts.data(), ingresses.data(), items,
                   shard_results.data());  // warm-up (also first-touch)
      for (std::size_t i = 0; i < items; ++i) {
        identical = identical && results_equal(shard_results[i],
                                               fast_results[i]);
      }
      require(identical, "sharded replay diverged from fast path");
      const std::size_t sa0 = g_allocs.load(std::memory_order_relaxed);
      t0 = now_s();
      std::size_t sh_total = 0;
      for (std::size_t rd = 0; rd < fast_rounds; ++rd) {
        plane.replay(pkts.data(), ingresses.data(), items,
                     shard_results.data());
        sh_total += items;
      }
      elapsed = now_s() - t0;
      const std::size_t sa1 = g_allocs.load(std::memory_order_relaxed);
      rep.sharded_allocs_per_packet =
          static_cast<double>(sa1 - sa0) / static_cast<double>(sh_total);
      require(sa1 == sa0,
              "sharded steady state performed a heap allocation");
      ShardPoint pt;
      pt.shards = plane.shard_count();
      pt.pps = static_cast<double>(sh_total) / elapsed;
      if (pt.shards == 1) pps_1shard = pt.pps;
      pt.speedup_vs_1 = pps_1shard > 0 ? pt.pps / pps_1shard : 0;
      rep.shard_points.push_back(pt);
    }
    rep.sharded_identical = identical ? 1 : 0;

    // --- Open-loop sustained load at the largest shard count: sweep
    // offered rates around the measured closed-loop capacity and report
    // arrival-to-completion latency percentiles. Above-capacity points
    // show the saturation knee (queueing delay grows unboundedly). ---
    const double capacity =
        rep.shard_points.empty() ? rep.fast_pps : rep.shard_points.back().pps;
    std::vector<double> levels = smoke ? std::vector<double>{0.5, 1.1}
                                       : std::vector<double>{0.2, 0.5, 0.8, 1.1};
    shard::ShardedDataPlane plane(network, shard_counts.back());
    std::vector<double> latencies(items, 0.0);
    plane.sustained_load(pkts.data(), ingresses.data(), items,
                         shard_results.data(), capacity * 0.5,
                         /*poisson=*/true, /*seed=*/1234,
                         latencies.data());  // warm-up
    for (const double frac : levels) {
      LoadPoint lp;
      const double rate = capacity * frac;
      const shard::LoadResult lr = plane.sustained_load(
          pkts.data(), ingresses.data(), items, shard_results.data(), rate,
          /*poisson=*/true, /*seed=*/1234, latencies.data());
      for (std::size_t i = 0; i < items; ++i) {
        require(results_equal(shard_results[i], fast_results[i]),
                "sustained-load result diverged from fast path");
      }
      lp.offered_pps = lr.offered_pps;
      lp.achieved_pps = lr.achieved_pps;
      std::vector<double> lat;
      lat.reserve(items);
      for (const double v : latencies) {
        if (v >= 0) lat.push_back(v * 1e6);
      }
      std::sort(lat.begin(), lat.end());
      if (!lat.empty()) {
        lp.p50_us = lat[lat.size() / 2];
        lp.p99_us = lat[(lat.size() * 99) / 100];
        lp.p999_us = lat[(lat.size() * 999) / 1000];
      }
      rep.load_points.push_back(lp);
    }
  }

  // --- Traced replay (--trace): same packets with the obs layer on.
  // After one warm-up round (metric registration allocates once), the
  // steady state must stay allocation-free: counter bumps, histogram
  // records, and ring slot writes are all fixed-memory operations. ---
  if (trace) {
    obs::set_enabled(true);
    if (!obs::route_trace().active()) obs::route_trace().enable(4096);
    for (std::size_t i = 0; i < items; ++i) {  // warm-up / registration
      pkt_scratch = pkts[i];
      network.route(pkt_scratch, ingresses[i], scratch);
    }
    const std::size_t ta0 = g_allocs.load(std::memory_order_relaxed);
    t0 = now_s();
    std::size_t traced_total = 0;
    for (std::size_t rd = 0; rd < fast_rounds; ++rd) {
      for (std::size_t i = 0; i < items; ++i) {
        pkt_scratch = pkts[i];
        network.route(pkt_scratch, ingresses[i], scratch);
        ++traced_total;
      }
    }
    elapsed = now_s() - t0;
    require(g_allocs.load(std::memory_order_relaxed) == ta0,
            "traced steady state performed a heap allocation");
    rep.traced_pps = static_cast<double>(traced_total) / elapsed;
    rep.trace_overhead_pct =
        (rep.fast_pps - rep.traced_pps) / rep.fast_pps * 100.0;
    obs::set_enabled(false);
  }

  // --- Oracle throughput (fresh result per packet). ---
  t0 = now_s();
  std::size_t ref_total = 0;
  for (std::size_t rd = 0; rd < ref_rounds; ++rd) {
    for (std::size_t i = 0; i < items; ++i) {
      const sden::RouteResult r =
          sden::reference_route(network, pkts[i], ingresses[i]);
      require(r.found, "oracle route");
      ++ref_total;
    }
  }
  elapsed = now_s() - t0;
  rep.reference_pps = static_cast<double>(ref_total) / elapsed;
  rep.speedup = rep.fast_pps / rep.reference_pps;

  std::printf(
      "n=%4zu: fast %9.0f pkts/s (%5.1f ns/hop, %.2f hops/pkt, p50 %5.0f ns, "
      "p99 %6.0f ns, allocs/pkt %.2f)\n        parallel %9.0f pkts/s | "
      "oracle %8.0f pkts/s | speedup %.2fx\n",
      n, rep.fast_pps, rep.ns_per_hop, rep.hops_per_packet, rep.p50_ns,
      rep.p99_ns, rep.allocs_per_packet, rep.fast_pps_parallel,
      rep.reference_pps, rep.speedup);
  for (const ShardPoint& pt : rep.shard_points) {
    std::printf("        shards=%zu %9.0f pkts/s (%.2fx vs 1 shard)\n",
                pt.shards, pt.pps, pt.speedup_vs_1);
  }
  for (const LoadPoint& lp : rep.load_points) {
    std::printf(
        "        load %8.0f pps offered -> %8.0f achieved | latency p50 "
        "%7.1f us  p99 %8.1f us  p999 %8.1f us\n",
        lp.offered_pps, lp.achieved_pps, lp.p50_us, lp.p99_us, lp.p999_us);
  }
  if (trace) {
    std::printf("        traced %9.0f pkts/s (obs on, overhead %.1f%%)\n",
                rep.traced_pps, rep.trace_overhead_pct);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool trace = false;
  std::size_t shards_flag = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const long v = std::atol(argv[i] + 9);
      if (v >= 1) shards_flag = static_cast<std::size_t>(v);
    }
  }
  trace = trace || obs::init_from_env();
  // The obs-off sections (and their allocs/pkt == 0 assertion) always
  // run with the layer off; the traced section flips it on itself.
  obs::set_enabled(false);

  // Shard counts for the scaling sweep: 1 plus doublings up to the
  // default shard count (GRED_SHARDS or hardware); at least {1, 2} so
  // the cross-shard machinery is always exercised. `--shards=K` pins
  // the sweep to {1, K}.
  std::vector<std::size_t> shard_counts = {1};
  if (shards_flag > 0) {
    if (shards_flag > 1) shard_counts.push_back(shards_flag);
  } else {
    const std::size_t top = std::max<std::size_t>(
        2, shard::default_shard_count());
    for (std::size_t k = 2; k <= top; k *= 2) shard_counts.push_back(k);
    if (shard_counts.back() != top) shard_counts.push_back(top);
  }

  bench::print_header(
      "Data plane",
      "compiled fast path vs the routing oracle vs sharded runtime",
      "bit-identical results; fast and sharded paths allocation-free in "
      "steady state");
  std::printf("pool threads: %zu (GRED_THREADS or hardware), shard sweep up "
              "to %zu%s\n\n",
              global_pool().thread_count(), shard_counts.back(),
              smoke ? "  [smoke]" : "");

  std::vector<std::size_t> sizes = {64, 256, 1024};
  if (smoke) sizes = {64, 256};

  std::vector<std::pair<std::string, double>> fields;
  for (std::size_t n : sizes) {
    const SizeReport rep = run_size(n, smoke, trace, shard_counts);
    const std::string p = "n" + std::to_string(n) + "_";
    fields.emplace_back(p + "reference_pkts_per_sec", rep.reference_pps);
    fields.emplace_back(p + "fast_pkts_per_sec", rep.fast_pps);
    fields.emplace_back(p + "fast_pkts_per_sec_parallel",
                        rep.fast_pps_parallel);
    fields.emplace_back(p + "speedup", rep.speedup);
    fields.emplace_back(p + "ns_per_hop", rep.ns_per_hop);
    fields.emplace_back(p + "hops_per_packet", rep.hops_per_packet);
    fields.emplace_back(p + "route_p50_ns", rep.p50_ns);
    fields.emplace_back(p + "route_p99_ns", rep.p99_ns);
    fields.emplace_back(p + "allocs_per_packet", rep.allocs_per_packet);
    for (const ShardPoint& pt : rep.shard_points) {
      const std::string sp = p + "shards" + std::to_string(pt.shards) + "_";
      fields.emplace_back(sp + "pkts_per_sec", pt.pps);
      fields.emplace_back(sp + "speedup_vs_1shard", pt.speedup_vs_1);
    }
    fields.emplace_back(p + "sharded_identical", rep.sharded_identical);
    fields.emplace_back(p + "sharded_allocs_per_packet",
                        rep.sharded_allocs_per_packet);
    for (std::size_t i = 0; i < rep.load_points.size(); ++i) {
      const LoadPoint& lp = rep.load_points[i];
      const std::string lpre = p + "load" + std::to_string(i) + "_";
      fields.emplace_back(lpre + "offered_pps", lp.offered_pps);
      fields.emplace_back(lpre + "achieved_pps", lp.achieved_pps);
      fields.emplace_back(lpre + "p50_us", lp.p50_us);
      fields.emplace_back(lpre + "p99_us", lp.p99_us);
      fields.emplace_back(lpre + "p999_us", lp.p999_us);
    }
    if (trace) {
      fields.emplace_back(p + "traced_pkts_per_sec", rep.traced_pps);
      fields.emplace_back(p + "trace_overhead_pct", rep.trace_overhead_pct);
    }
  }
  bench::write_json("BENCH_data_plane.json", fields);
  std::printf("\nwrote BENCH_data_plane.json\n");
  if (trace) {
    const Status written = obs::write_text_file(
        "BENCH_data_plane_obs.json", obs::to_json(obs::default_sources()));
    require(written.ok(), "write BENCH_data_plane_obs.json");
    std::printf("wrote BENCH_data_plane_obs.json (metrics + route trace)\n");
  }
  return 0;
}
