// Control-plane scaling bench: wall-clock for the three parallelized
// hot paths — APSP (weighted + unweighted, as Controller::recompute_apsp
// runs them), the C-regulation loop, and the nearest-site lookup — at
// threads=1 vs the configured pool (GRED_THREADS, default: all cores),
// plus the churn sweep: per-event cost of the delta path (delta-APSP +
// localized DT repair + flow-table install of the affected switches)
// vs a cold restore of the same state (full APSP + DT build + install)
// at n in {256, 1024, 4096}.
// Emits BENCH_control_plane.json so CI can track the speedups. Every
// parallel or delta-path run is checked bit-identical to its serial or
// cold counterpart before any number is reported. `--smoke` shrinks
// the churn sweep for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/snapshot.hpp"
#include "crypto/data_key.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/site_grid.hpp"
#include "graph/shortest_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sden/network.hpp"
#include "shard/sharded_data_plane.hpp"

using namespace gred;

// Global allocation counter for the churn section's steady-state
// assertion (same hook as bench_data_plane): routing through a plan
// synced after the churn must stay alloc-free.
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

/// Best-of-3 wall-clock milliseconds.
double time_ms(const std::function<void()>& fn) {
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fflush(stdout);
    std::fprintf(stderr, "determinism check failed: %s\n", what);
    std::abort();
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Full RouteResult equality, statuses included — the predicate the
/// differential tests use.
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

/// Field-wise flow-table equality of every switch (entry order
/// included: match semantics are first-wins over the vectors).
bool flow_tables_equal(const sden::SdenNetwork& a,
                       const sden::SdenNetwork& b) {
  if (a.switch_count() != b.switch_count()) return false;
  for (sden::SwitchId s = 0; s < a.switch_count(); ++s) {
    const sden::FlowTable& ta = a.const_switch_at(s).table();
    const sden::FlowTable& tb = b.const_switch_at(s).table();
    if (ta.neighbors().size() != tb.neighbors().size() ||
        ta.relays().size() != tb.relays().size() ||
        ta.rewrites().size() != tb.rewrites().size()) {
      return false;
    }
    for (std::size_t i = 0; i < ta.neighbors().size(); ++i) {
      const sden::NeighborEntry& x = ta.neighbors()[i];
      const sden::NeighborEntry& y = tb.neighbors()[i];
      if (x.neighbor != y.neighbor || x.position.x != y.position.x ||
          x.position.y != y.position.y || x.physical != y.physical ||
          x.first_hop != y.first_hop) {
        return false;
      }
    }
    for (std::size_t i = 0; i < ta.relays().size(); ++i) {
      const sden::RelayEntry& x = ta.relays()[i];
      const sden::RelayEntry& y = tb.relays()[i];
      if (x.sour != y.sour || x.pred != y.pred || x.succ != y.succ ||
          x.dest != y.dest) {
        return false;
      }
    }
    for (std::size_t i = 0; i < ta.rewrites().size(); ++i) {
      const sden::RewriteEntry& x = ta.rewrites()[i];
      const sden::RewriteEntry& y = tb.rewrites()[i];
      if (x.original != y.original || x.replacement != y.replacement ||
          x.via_switch != y.via_switch) {
        return false;
      }
    }
  }
  return true;
}

/// A cold restore of a live system: capture_snapshot + restore_snapshot
/// into a fresh network over the same topology, holding the same items.
/// The from-scratch oracle for the delta path (full APSP, DT build and
/// install of every switch).
struct ColdRestore {
  ColdRestore(const core::Controller& live, const sden::SdenNetwork& live_net)
      : net(live_net.description()), ctrl(live.options()) {
    for (topology::ServerId s = 0; s < live_net.server_count(); ++s) {
      net.server(s) = live_net.server(s);
    }
    auto snap = core::capture_snapshot(live, live_net);
    require(snap.ok() && core::restore_snapshot(ctrl, net, snap.value()).ok(),
            "cold restore");
  }
  sden::SdenNetwork net;
  core::Controller ctrl;
};

struct ChurnReport {
  std::size_t n = 0;
  std::size_t events = 0;              ///< successful churn events
  std::size_t local_events = 0;  ///< ... patching some but not all switches
  double event_us_p50 = 0;
  double event_us_p99 = 0;
  double full_rebuild_ms = 0;  ///< mean cold restore
  double speedup = 0;          ///< cold restore / delta-path p50
  double allocs_per_packet = 0;
};

/// One churn size: a GRED system absorbs a seeded mix of switch
/// join/leave, link add/remove, and range extend/retract events, each
/// timed end-to-end. Identity is asserted before any number is
/// reported: at every n after every event, a 4-shard plane whose plans
/// sync after that event routes every packet as route() does; at
/// n <= 256 after every event, against a cold restore (APSP tables,
/// flow tables, and routed packets); at every n after the churn,
/// against a cold restore (APSP, DT adjacency, flow tables), and the
/// event-by-event synced sharded plans against a fresh plane's.
ChurnReport run_churn(std::size_t n, bool smoke) {
  ChurnReport rep;
  rep.n = n;
  const bool lockstep = n <= 256;
  auto made =
      core::GredSystem::create(bench::network({.switches = n,
                                               .servers_per_switch = 1,
                                               .topology_seed = 8100 + n}),
                               bench::gred_options(smoke ? 10 : 30));
  require(made.ok(), "GredSystem::create (churn)");
  core::GredSystem sys = std::move(made).value();
  sden::SdenNetwork& net = sys.network();

  // Seeded storage plus retrieval packets.
  const std::size_t items = smoke ? 150 : 400;
  Rng rng(4800 + n);
  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id =
        "churn-" + std::to_string(n) + "-" + std::to_string(i);
    const sden::SwitchId ingress = rng.next_below(n);
    require(sys.place(id, "v-" + id, ingress).ok(), "churn place");
    sden::Packet p;
    p.type = sden::PacketType::kRetrieval;
    p.data_id = id;
    const crypto::DataKey key(id);
    p.target = {key.position().x, key.position().y};
    p.set_key(key);
    pkts.push_back(p);
    ingresses.push_back(rng.next_below(n));
  }

  // 4-shard data plane replayed after every event; each round syncs its
  // plans with the network.
  shard::ShardedDataPlane sdp(net, 4);
  std::vector<sden::RouteResult> sharded(pkts.size());

  sden::Packet pkt_scratch;
  sden::RouteResult scratch;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkt_scratch = pkts[i];
    net.route(pkt_scratch, ingresses[i], scratch);
  }

  core::Controller& ctrl = sys.controller();
  const std::size_t rounds =
      smoke ? 12 : (n >= 4096 ? 12 : (n >= 1024 ? 20 : 40));
  std::vector<double> event_us;
  for (std::size_t step = 0; step < rounds; ++step) {
    const std::vector<sden::SwitchId>& parts = ctrl.space().participants();
    const sden::SwitchId a = parts[rng.next_below(parts.size())];
    // Churn partner: a nearby participant (2-3 hops), reservoir-sampled
    // from a's APSP row. Waxman attachment is distance-biased, so edge
    // churn adds local links too — a uniformly random partner would be
    // a global wormhole no edge deployment wires up, and its affected
    // region (hence per-event cost) grows with n instead of staying
    // region-proportional. Falls back to uniform when a's 2-3-hop
    // neighborhood has no participants.
    sden::SwitchId b = parts[rng.next_below(parts.size())];
    {
      std::size_t near_seen = 0;
      for (const sden::SwitchId t : parts) {
        const double d = ctrl.apsp().dist(a, t);
        if (d < 2.0 || d > 3.0) continue;
        ++near_seen;
        if (rng.next_below(near_seen) == 0) b = t;
      }
    }
    const topology::ServerId srv = rng.next_below(net.server_count());
    // Link removal must name an existing edge: a uniformly (or
    // locally) sampled partner is almost never adjacent, which would
    // turn every remove round into a silent no-op.
    sden::SwitchId b_adj = b;
    {
      const std::vector<graph::EdgeTo>& adj =
          net.description().switches().neighbors(a);
      if (!adj.empty()) b_adj = adj[rng.next_below(adj.size())].to;
    }
    const bool may_remove = parts.size() > 8;
    const std::uint64_t op = rng.next_below(6);
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = false;
    switch (op) {
      case 0:
        ok = sys.add_switch({a, b}, /*servers=*/1).ok();
        break;
      case 1:
        ok = may_remove ? sys.remove_switch(a).ok() : sys.add_link(a, b).ok();
        break;
      case 2:
        ok = sys.add_link(a, b).ok();
        break;
      case 3:
        ok = sys.remove_link(a, b_adj).ok();
        break;
      case 4:
        ok = sys.extend_range(srv).ok();
        break;
      default:
        ok = sys.retract_range(srv).ok();
        break;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) continue;  // e.g. duplicate link, would-disconnect removal
    event_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    const std::size_t patched = ctrl.last_affected_switches().size();
    if (patched > 0 && patched < net.switch_count()) {
      ++rep.local_events;
    }
    // The replay syncs the sharded plans after this event (a new
    // partition and a compile of every shard plan); every packet must
    // route as through the network's own plan.
    sdp.replay(pkts.data(), ingresses.data(), pkts.size(), sharded.data());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      pkt_scratch = pkts[i];
      net.route(pkt_scratch, ingresses[i], scratch);
      require(results_equal(scratch, sharded[i]),
              "sharded plane != route() after a churn event");
    }
    if (lockstep) {
      ColdRestore cold(ctrl, net);
      require(ctrl.apsp().dist == cold.ctrl.apsp().dist,
              "delta APSP (hops) != cold restore");
      require(ctrl.apsp_latency().dist == cold.ctrl.apsp_latency().dist,
              "delta APSP (latency) != cold restore");
      require(flow_tables_equal(net, cold.net),
              "delta flow tables != cold restore");
      for (std::size_t i = 0; i < pkts.size(); i += 8) {
        sden::Packet q = pkts[i];
        sden::RouteResult cold_res;
        cold.net.route(q, ingresses[i], cold_res);
        require(results_equal(sharded[i], cold_res),
                "delta retrieval != cold restore");
      }
    }
  }
  rep.events = event_us.size();
  require(rep.events > 0, "no churn event succeeded");
  require(rep.local_events * 2 >= rep.events,
          "delta path starved (mostly whole-network patches)");

  // Retract every extension still active: delivery at a switch with a
  // rewrite takes the live-pipeline fallback (which may allocate), so
  // the steady-state alloc assertion below needs a rewrite-free
  // network. Each retraction is itself a delta-path event.
  for (sden::SwitchId s = 0; s < net.switch_count(); ++s) {
    std::vector<topology::ServerId> extended;
    for (const sden::RewriteEntry& rw : net.const_switch_at(s).table()
             .rewrites()) {
      extended.push_back(rw.original);
    }
    for (const topology::ServerId srv : extended) {
      require(sys.retract_range(srv).ok(), "cleanup retract_range");
    }
  }

  // Ground truth at every size, and the full-recompute baseline: the
  // delta-maintained state equals a cold restore of the final state,
  // whose wall time (snapshot, full APSP, DT build, install of every
  // switch) is the per-event cost the delta path avoids.
  double full_ms = 0;
  constexpr int kColdRuns = 2;
  for (int run = 0; run < kColdRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    const ColdRestore cold(ctrl, net);
    full_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    require(ctrl.apsp().dist == cold.ctrl.apsp().dist,
            "delta-APSP (hops) drifted from cold restore");
    require(ctrl.apsp_latency().dist == cold.ctrl.apsp_latency().dist,
            "delta-APSP (latency) drifted from cold restore");
    const geometry::DelaunayTriangulation& repaired =
        ctrl.dt().triangulation();
    const geometry::DelaunayTriangulation& fresh =
        cold.ctrl.dt().triangulation();
    require(repaired.size() == fresh.size(), "DT size drifted");
    for (std::size_t i = 0; i < repaired.size(); ++i) {
      require(repaired.neighbors(i) == fresh.neighbors(i),
              "repaired DT adjacency drifted from cold restore");
    }
    require(flow_tables_equal(net, cold.net),
            "delta flow tables drifted from cold restore");
  }
  rep.full_rebuild_ms = full_ms / kColdRuns;

  // The sharded plans, synced event by event (the cleanup retractions
  // at this replay), vs a freshly constructed plane, every packet
  // bit-identical.
  {
    shard::ShardedDataPlane fresh_plane(net, 4);
    std::vector<sden::RouteResult> synced(pkts.size());
    std::vector<sden::RouteResult> fresh(pkts.size());
    sdp.replay(pkts.data(), ingresses.data(), pkts.size(), synced.data());
    fresh_plane.replay(pkts.data(), ingresses.data(), pkts.size(),
                       fresh.data());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      require(results_equal(synced[i], fresh[i]),
              "synced sharded plan diverged from a fresh plane");
    }
  }

  // Steady-state routing through the synced plan stays
  // alloc-free. Packets injected at a switch that left the DT (now an
  // inert transit) error out — legal, but the error Status allocates
  // its message — so the measured loop injects at live participants.
  {
    const std::vector<sden::SwitchId>& parts = ctrl.space().participants();
    std::vector<bool> is_part(net.switch_count(), false);
    for (const sden::SwitchId s : parts) is_part[s] = true;
    for (sden::SwitchId& ingress : ingresses) {
      if (!is_part[ingress]) ingress = parts[rng.next_below(parts.size())];
    }
  }
  // Doubles as the warm pass: every post-churn retrieval through the
  // synced plan must succeed and find its item before the alloc
  // assertion means anything.
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkt_scratch = pkts[i];
    net.route(pkt_scratch, ingresses[i], scratch);
    if (!scratch.status.ok()) {
      std::fprintf(stderr, "post-churn route error (pkt %zu): %s\n", i,
                   scratch.status.error().message.c_str());
    }
    require(scratch.status.ok(), "post-churn route errored");
    require(scratch.found, "post-churn retrieval missed");
  }
  const std::size_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkt_scratch = pkts[i];
    net.route(pkt_scratch, ingresses[i], scratch);
  }
  const std::size_t a1 = g_allocs.load(std::memory_order_relaxed);
  rep.allocs_per_packet =
      static_cast<double>(a1 - a0) / static_cast<double>(pkts.size());
  require(a1 == a0, "steady-state route after churn allocated");

  rep.event_us_p50 = percentile(event_us, 0.50);
  rep.event_us_p99 = percentile(event_us, 0.99);
  rep.speedup =
      rep.full_rebuild_ms * 1000.0 / std::max(rep.event_us_p50, 1e-9);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  ThreadPool serial(1);
  ThreadPool& pool = global_pool();
  const auto threads = static_cast<double>(pool.thread_count());

  bench::print_header(
      "Control plane", "APSP / C-regulation / nearest-site / churn scaling",
      "parallel and delta-path output identical to serial/cold restore");
  std::printf("pool threads: %zu (GRED_THREADS or hardware)\n\n",
              pool.thread_count());

  // --- APSP: 400-switch Waxman, both tables like recompute_apsp. ---
  const topology::EdgeNetwork net = bench::network({.switches = 400,
                                                    .servers_per_switch = 1,
                                                    .topology_seed = 424});
  const graph::Graph& g = net.switches();
  graph::ApspResult serial_hops, serial_lat, pool_hops, pool_lat;
  const double apsp_serial_ms = time_ms([&] {
    serial_hops = graph::all_pairs_shortest_paths(g, false, &serial);
    serial_lat = graph::all_pairs_shortest_paths(g, true, &serial);
  });
  const double apsp_pool_ms = time_ms([&] {
    pool_hops = graph::all_pairs_shortest_paths(g, false, &pool);
    pool_lat = graph::all_pairs_shortest_paths(g, true, &pool);
  });
  require(serial_hops.dist == pool_hops.dist, "unweighted APSP");
  require(serial_lat.dist == pool_lat.dist, "weighted APSP");
  const double apsp_speedup = apsp_serial_ms / apsp_pool_ms;
  std::printf("APSP (400 switches, both tables): %.1f ms serial, %.1f ms "
              "pooled, speedup %.2fx\n",
              apsp_serial_ms, apsp_pool_ms, apsp_speedup);

  // --- C-regulation: 400 sites, 20 iterations, 20k samples/iter. ---
  Rng site_rng(77);
  std::vector<geometry::Point2D> sites;
  for (int i = 0; i < 400; ++i) {
    sites.push_back({site_rng.next_double(), site_rng.next_double()});
  }
  geometry::CvtOptions cvt;
  cvt.samples_per_iteration = 20000;
  cvt.max_iterations = 20;
  geometry::CvtResult serial_cvt, pool_cvt;
  cvt.pool = &serial;
  const double cvt_serial_ms = time_ms([&] {
    Rng rng(7);
    serial_cvt = geometry::c_regulation(sites, cvt, rng);
  });
  cvt.pool = &pool;
  const double cvt_pool_ms = time_ms([&] {
    Rng rng(7);
    pool_cvt = geometry::c_regulation(sites, cvt, rng);
  });
  require(serial_cvt.sites == pool_cvt.sites &&
              serial_cvt.energy_history == pool_cvt.energy_history,
          "C-regulation");
  const double cvt_speedup = cvt_serial_ms / cvt_pool_ms;
  std::printf("C-regulation (400 sites, 20 iters): %.2f ms/iter serial, "
              "%.2f ms/iter pooled, speedup %.2fx\n",
              cvt_serial_ms / 20.0, cvt_pool_ms / 20.0, cvt_speedup);

  // --- Nearest-site: grid index vs brute-force scan. ---
  const geometry::Rect domain;
  const geometry::SiteGrid grid(serial_cvt.sites, domain);
  const std::size_t queries = 200000;
  Rng qrng(13);
  std::vector<geometry::Point2D> pts;
  pts.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    pts.push_back({qrng.next_double(), qrng.next_double()});
  }
  std::size_t sink_grid = 0, sink_brute = 0;
  const double grid_ms = time_ms([&] {
    std::size_t acc = 0;
    for (const auto& p : pts) acc += grid.nearest(p);
    sink_grid = acc;
  });
  const double brute_ms = time_ms([&] {
    std::size_t acc = 0;
    for (const auto& p : pts) acc += geometry::nearest_site(serial_cvt.sites, p);
    sink_brute = acc;
  });
  require(sink_grid == sink_brute, "nearest-site lookup");
  const double grid_qps = static_cast<double>(queries) / (grid_ms / 1000.0);
  const double brute_qps = static_cast<double>(queries) / (brute_ms / 1000.0);
  std::printf("nearest-site (400 sites, 200k queries): %.2fM/s grid, "
              "%.2fM/s brute force, speedup %.1fx\n",
              grid_qps / 1e6, brute_qps / 1e6, grid_qps / brute_qps);

  // --- Churn sweep: per-event delta-path cost vs a cold restore,
  // identity asserted before any number is reported (see run_churn). ---
  std::vector<std::size_t> churn_sizes = {256, 1024, 4096};
  if (smoke) churn_sizes = {256};
  std::vector<ChurnReport> churn;
  std::printf("\nchurn sweep (delta path vs cold restore, identity-checked):\n");
  for (const std::size_t cn : churn_sizes) {
    churn.push_back(run_churn(cn, smoke));
    const ChurnReport& r = churn.back();
    std::printf("  n=%-5zu %zu/%zu events patched locally, p50 %.0f us, "
                "p99 %.0f us, cold restore %.1f ms, speedup %.1fx, "
                "allocs/pkt %.2f\n",
                r.n, r.local_events, r.events, r.event_us_p50,
                r.event_us_p99, r.full_rebuild_ms, r.speedup,
                r.allocs_per_packet);
  }

  // --- Phase timers: one full control-plane build with the obs layer
  // on. The per-phase histograms (APSP, MDS embed, C-regulation, DT
  // build, install) come straight from the instrumented library, so
  // this section also proves the timers fire where DESIGN.md says. ---
  obs::registry().reset_values();
  obs::set_enabled(true);
  {
    const topology::EdgeNetwork obs_net =
        bench::network({.switches = 200, .servers_per_switch = 2,
                        .topology_seed = 777});
    auto sys = core::GredSystem::create(obs_net, bench::gred_options(30));
    require(sys.ok(), "GredSystem::create (obs section)");
  }
  obs::set_enabled(false);
  std::printf("\ncontrol-plane phases (200 switches, obs on):\n");
  const obs::Registry::Snapshot phases = obs::registry().snapshot();
  for (const auto& [name, hist] : phases.histograms) {
    std::printf("  %-28s %8.2f ms (runs %llu)\n", name.c_str(), hist.sum,
                static_cast<unsigned long long>(hist.count));
  }
  obs::ExportSources phase_sources;
  phase_sources.registry = &obs::registry();
  require(obs::write_text_file("BENCH_control_plane_obs.json",
                               obs::to_json(phase_sources))
              .ok(),
          "write BENCH_control_plane_obs.json");

  std::vector<std::pair<std::string, double>> fields = {
      {"threads", threads},
      {"apsp_ms_threads1", apsp_serial_ms},
      {"apsp_ms", apsp_pool_ms},
      {"apsp_speedup", apsp_speedup},
      {"cvt_ms_per_iter_threads1", cvt_serial_ms / 20.0},
      {"cvt_ms_per_iter", cvt_pool_ms / 20.0},
      {"cvt_speedup", cvt_speedup},
      {"grid_lookups_per_sec", grid_qps},
      {"brute_lookups_per_sec", brute_qps},
      {"lookup_speedup", grid_qps / brute_qps}};
  double max_churn_allocs = 0;
  for (const ChurnReport& r : churn) {
    const std::string p = "churn" + std::to_string(r.n) + "_";
    fields.emplace_back(p + "event_us_p50", r.event_us_p50);
    fields.emplace_back(p + "event_us_p99", r.event_us_p99);
    fields.emplace_back(p + "full_rebuild_ms", r.full_rebuild_ms);
    fields.emplace_back(p + "speedup", r.speedup);
    fields.emplace_back(p + "allocs_per_packet", r.allocs_per_packet);
    max_churn_allocs = std::max(max_churn_allocs, r.allocs_per_packet);
  }
  // Headline keys (largest size in the sweep). Every identity check
  // aborts the bench on divergence, so reaching this line IS the
  // delta path == cold restore assertion.
  fields.emplace_back("churn_event_us_p50", churn.back().event_us_p50);
  fields.emplace_back("churn_event_us_p99", churn.back().event_us_p99);
  fields.emplace_back("incremental_speedup", churn.back().speedup);
  fields.emplace_back("incremental_identical", 1.0);
  fields.emplace_back("churn_allocs_per_packet", max_churn_allocs);
  bench::write_json("BENCH_control_plane.json", fields);
  std::printf("\nwrote BENCH_control_plane.json\n");
  std::printf("wrote BENCH_control_plane_obs.json (phase timings)\n");
  return 0;
}
