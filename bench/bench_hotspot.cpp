// Hotspot bench: Zipf + spatially-localized retrieval traffic against
// the two hotspot defenses (ROADMAP "Hotspot traffic"): the per-switch
// hot-key cache and load-driven range extension (with a popularity-
// weighted CVT density for the defended configuration). For each
// alpha in {0.8, 1.0, 1.2} x {cache off/on} x {extension off/on} the
// bench builds a fresh deployment, replays an adaptive phase (warms
// the cache, rolls the load tracker, triggers extensions), then
// measures a second trace through the FIFO delay model and the
// per-switch load tracker.
//
// Emits BENCH_hotspot.json:
//
//   switches / universe / adapt_ops / meas_ops
//   <cell>_p50_ms, <cell>_p99_ms     response delay (cell = a12_cache1_ext0 ...)
//   <cell>_max_avg_load              max/avg observed per-switch retrievals
//   <cell>_hit_rate                  cache hit rate over the measured trace
//   <cell>_extensions                load-driven extensions performed
//   a12_p99_improvement_pct          both defenses vs. neither, alpha = 1.2
//   a12_load_improvement_pct         (asserted >= 0 along with p99)
//   hotspot_cache_hit_rate           defended cell hit rate (asserted > 0)
//   hotspot_cached_pkts_per_sec      probe-or-route fast-path throughput
//   hotspot_fast_hit_fraction        hit share of the fast-path loop
//   hotspot_allocs_per_packet        asserted == 0 (cache-on fast path)
//
// `--smoke` shrinks the topology and trace lengths for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/delay_experiment.hpp"
#include "crypto/data_key.hpp"
#include "geometry/point.hpp"
#include "obs/switch_load.hpp"
#include "sden/hot_key_cache.hpp"
#include "sden/network.hpp"
#include "workload/hotspot.hpp"

using namespace gred;

// Global allocation counter for the zero-steady-state-alloc assertion.
static std::size_t g_allocs = 0;
void* operator new(std::size_t n) {
  ++g_allocs;
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
    std::fprintf(stderr, "bench_hotspot: check failed: %s\n", what);
    std::abort();
  }
}

struct CellParams {
  std::size_t switches = 0;
  std::size_t universe = 0;
  std::size_t adapt_ops = 0;
  std::size_t meas_ops = 0;
  std::size_t windows = 8;
  std::size_t alloc_rounds = 0;
  double alpha = 1.0;
  bool use_cache = false;
  bool use_ext = false;
  std::uint64_t seed = 0;  ///< per-alpha, shared by the 4 cells
};

struct CellResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_avg_load = 0.0;
  double hit_rate = 0.0;
  double extensions = 0.0;
  std::size_t cache_hits = 0;
  // Filled only for the cell that runs the allocation-audited loop.
  double cached_pps = 0.0;
  double allocs_per_packet = 0.0;
  double fast_hit_fraction = 0.0;
};

/// Steady-state cache-on fast path: probe the ingress switch's hot-key
/// cache, serve the payload into a reused buffer on a hit, route the
/// packet on a miss — with the allocation counter checked across the
/// timed region.
void cached_fast_path(sden::SdenNetwork& network, sden::HotKeyCache& cache,
                      const std::vector<sden::Packet>& pkts,
                      const std::vector<sden::SwitchId>& ingresses,
                      std::size_t rounds, CellResult* res) {
  sden::RouteResult scratch;
  sden::Packet pkt_scratch;
  std::string payload_scratch;
  // Warm-up: sizes every scratch capacity so the timed region is
  // steady (route buffers, packet strings, the payload buffer).
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const sden::HotKeyCache::Entry* e =
        cache.probe(ingresses[i], pkts[i].key_digest);
    if (e != nullptr) {
      payload_scratch.assign(e->payload);
      continue;
    }
    pkt_scratch = pkts[i];
    network.route(pkt_scratch, ingresses[i], scratch);
    require(scratch.status.ok() && scratch.found, "warm-up route");
  }
  const std::size_t a0 = g_allocs;
  const double t0 = now_s();
  std::size_t total = 0;
  std::size_t hits = 0;
  for (std::size_t rd = 0; rd < rounds; ++rd) {
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const sden::HotKeyCache::Entry* e =
          cache.probe(ingresses[i], pkts[i].key_digest);
      if (e != nullptr) {
        payload_scratch.assign(e->payload);
        ++hits;
      } else {
        pkt_scratch = pkts[i];
        network.route(pkt_scratch, ingresses[i], scratch);
      }
      ++total;
    }
  }
  const double elapsed = now_s() - t0;
  res->cached_pps = static_cast<double>(total) / elapsed;
  res->allocs_per_packet =
      static_cast<double>(g_allocs - a0) / static_cast<double>(total);
  res->fast_hit_fraction =
      static_cast<double>(hits) / static_cast<double>(total);
  require(hits > 0, "fast-path loop never hit the cache");
}

CellResult run_cell(const topology::EdgeNetwork& desc, const CellParams& p,
                    bool measure_alloc) {
  workload::HotspotOptions wopt;
  wopt.universe = p.universe;
  wopt.prefix = "hot";
  wopt.grid = 4;
  wopt.zipf_exponent = p.alpha;
  wopt.locality = 0.7;
  wopt.ingress_locality = 0.7;
  wopt.mean_interarrival_ms = 0.05;
  // Three active-region rotations per trace.
  wopt.diurnal_period_ms = static_cast<double>(p.adapt_ops) *
                           wopt.mean_interarrival_ms / 3.0;

  core::VirtualSpaceOptions vopt = bench::gred_options(30);
  if (p.use_ext) {
    // Defended configuration: popularity-weighted C-regulation. The
    // stationary region demand only depends on the key universe, so a
    // probe workload with a dummy switch position supplies it before
    // the deployment (and its real positions) exists.
    workload::HotspotWorkload probe(wopt, {geometry::Point2D{0.5, 0.5}});
    const std::vector<double> demand = probe.region_demand();
    const std::size_t g = wopt.grid;
    const double regions = static_cast<double>(demand.size());
    double dmax = 0.0;
    for (double d : demand) dmax = std::max(dmax, d);
    vopt.cvt_density = [demand, g, regions](const geometry::Point2D& pt) {
      const auto axis = [g](double v) {
        if (!(v > 0.0)) return std::size_t{0};
        const std::size_t cell =
            static_cast<std::size_t>(v * static_cast<double>(g));
        return cell >= g ? g - 1 : cell;
      };
      return demand[axis(pt.x) + g * axis(pt.y)] * regions;
    };
    vopt.cvt_density_bound = dmax * regions;
  }

  auto built = core::GredSystem::create(desc, vopt);
  require(built.ok(), "GredSystem::create");
  core::GredSystem& sys = built.value();

  // Workload over the deployment's actual virtual positions.
  std::vector<geometry::Point2D> positions(p.switches,
                                           geometry::Point2D{0.5, 0.5});
  const auto& space = sys.controller().space();
  for (std::size_t i = 0; i < space.participants().size(); ++i) {
    positions[space.participants()[i]] = space.positions()[i];
  }
  workload::HotspotWorkload load(wopt, positions);

  Rng place_rng(p.seed);
  for (const std::string& id : load.ids()) {
    require(sys.place(id, "payload-" + id, place_rng.next_below(p.switches))
                .ok(),
            "place");
  }

  obs::SwitchLoadTracker tracker(p.switches, 0.5);
  sys.network().set_load_tracker(&tracker);
  sden::HotKeyCache* cache = nullptr;
  if (p.use_cache) {
    cache = &sys.network().enable_hot_key_cache(32);
    cache->set_mode(sden::HotKeyCache::Mode::kLearn);
  }

  // --- Adaptive phase: warm the cache, roll load windows, extend. ---
  Rng adapt_rng(p.seed + 1);
  const std::vector<workload::Op> adapt =
      load.retrieval_trace(p.adapt_ops, adapt_rng);
  std::size_t extensions = 0;
  const std::size_t window = (adapt.size() + p.windows - 1) / p.windows;
  for (std::size_t i = 0; i < adapt.size(); ++i) {
    auto r = sys.retrieve(adapt[i].data_id, adapt[i].access_switch);
    require(r.ok() && r.value().route.found, "adaptive retrieval");
    if ((i + 1) % window == 0 || i + 1 == adapt.size()) {
      tracker.roll_window();
      if (p.use_ext) {
        core::LoadExtensionOptions lopt;
        lopt.hot_factor = 1.5;
        lopt.max_extensions = 2;
        auto done = sys.extend_for_load(tracker, lopt);
        require(done.ok(), "extend_for_load");
        extensions += done.value();
      }
    }
  }

  // Control-plane actions in the adaptive phase (extensions, hot-item
  // migrations) conservatively drop every cached answer; re-warm in
  // learn mode before measuring, as a steady deployment would between
  // control events.
  if (cache != nullptr) {
    Rng warm_rng(p.seed + 3);
    const std::vector<workload::Op> warm =
        load.retrieval_trace(p.meas_ops, warm_rng);
    for (const workload::Op& op : warm) {
      auto r = sys.retrieve(op.data_id, op.access_switch);
      require(r.ok() && r.value().route.found, "warm retrieval");
    }
  }

  // --- Measurement: fresh trace through the FIFO delay model, loads
  // observed per switch. kServe makes the concurrent routing phase
  // probe-only. ---
  Rng meas_rng(p.seed + 2);
  const std::vector<workload::Op> meas =
      load.retrieval_trace(p.meas_ops, meas_rng);
  std::vector<core::RetrievalRequest> requests;
  requests.reserve(meas.size());
  for (const workload::Op& op : meas) {
    requests.push_back({op.data_id, op.access_switch, op.at_ms});
  }
  if (cache != nullptr) {
    cache->set_mode(sden::HotKeyCache::Mode::kServe);
    cache->reset_stats();
  }
  tracker.reset();

  core::RetrievalDelayExperiment experiment(sys, core::DelayModelOptions{});
  auto out = experiment.run(requests);
  require(out.ok(), "delay experiment");
  require(out.value().not_found == 0, "measurement retrieval missed");

  CellResult res;
  res.p50_ms = out.value().delay.p50;
  res.p99_ms = out.value().delay.p99;
  res.cache_hits = out.value().cache_hits;
  res.hit_rate = cache != nullptr ? cache->hit_rate() : 0.0;
  res.extensions = static_cast<double>(extensions);

  std::uint64_t max_load = 0;
  std::uint64_t total_load = 0;
  for (std::size_t s = 0; s < p.switches; ++s) {
    const std::uint64_t c = tracker.window_count(s);
    max_load = std::max(max_load, c);
    total_load += c;
  }
  const double avg_load =
      static_cast<double>(total_load) / static_cast<double>(p.switches);
  res.max_avg_load = static_cast<double>(max_load) / avg_load;

  if (measure_alloc) {
    require(cache != nullptr, "alloc audit needs the cache enabled");
    const std::size_t sample = std::min<std::size_t>(meas.size(), 1000);
    std::vector<sden::Packet> pkts;
    std::vector<sden::SwitchId> ingresses;
    pkts.reserve(sample);
    ingresses.reserve(sample);
    for (std::size_t i = 0; i < sample; ++i) {
      sden::Packet pk;
      pk.type = sden::PacketType::kRetrieval;
      pk.data_id = meas[i].data_id;
      const crypto::DataKey key(meas[i].data_id);
      pk.target = {key.position().x, key.position().y};
      pk.set_key(key);
      pkts.push_back(std::move(pk));
      ingresses.push_back(meas[i].access_switch);
    }
    cached_fast_path(sys.network(), *cache, pkts, ingresses, p.alloc_rounds,
                     &res);
  }

  sys.network().set_load_tracker(nullptr);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Hotspot", "Zipf+spatial traffic vs. hot-key caches + load extension",
      "cache+extension cut p99 delay and max/avg switch load at alpha=1.2");

  CellParams base;
  base.switches = smoke ? 48 : 96;
  base.universe = smoke ? 600 : 1500;
  base.adapt_ops = smoke ? 2500 : 12000;
  base.meas_ops = smoke ? 2500 : 12000;
  base.alloc_rounds = smoke ? 4 : 20;

  const topology::EdgeNetwork desc =
      bench::network({.switches = base.switches, .servers_per_switch = 4,
                      .topology_seed = 7300 + base.switches});

  const double alphas[3] = {0.8, 1.0, 1.2};
  const char* alabel[3] = {"a08", "a10", "a12"};
  CellResult results[3][2][2];
  for (std::size_t a = 0; a < 3; ++a) {
    for (int c = 0; c < 2; ++c) {
      for (int e = 0; e < 2; ++e) {
        CellParams p = base;
        p.alpha = alphas[a];
        p.use_cache = c == 1;
        p.use_ext = e == 1;
        p.seed = 9500 + 10 * a;
        const bool audit = a == 2 && c == 1 && e == 1;
        results[a][c][e] = run_cell(desc, p, audit);
        const CellResult& r = results[a][c][e];
        std::printf(
            "alpha %.1f cache %d ext %d: p50 %8.3f ms, p99 %9.3f ms, "
            "max/avg %6.2f, hit %.3f, ext %2.0f\n",
            alphas[a], c, e, r.p50_ms, r.p99_ms, r.max_avg_load, r.hit_rate,
            r.extensions);
      }
    }
  }

  const CellResult& off = results[2][0][0];   // alpha=1.2, no defenses
  const CellResult& cached = results[2][1][0];
  const CellResult& defended = results[2][1][1];
  const double p99_improvement_pct =
      (off.p99_ms - defended.p99_ms) / off.p99_ms * 100.0;
  const double load_improvement_pct =
      (off.max_avg_load - defended.max_avg_load) / off.max_avg_load * 100.0;

  require(defended.hit_rate > 0.0, "defended cell never hit the cache");
  require(defended.cache_hits > 0, "measured trace saw no cache hits");
  require(cached.p99_ms <= off.p99_ms,
          "cache-on p99 worse than cache-off at alpha=1.2");
  require(defended.p99_ms <= off.p99_ms,
          "defended p99 worse than undefended at alpha=1.2");
  require(defended.max_avg_load <= off.max_avg_load,
          "defended max/avg load worse than undefended at alpha=1.2");
  require(results[2][0][1].extensions > 0.0,
          "load-driven extension never fired at alpha=1.2");
  require(defended.allocs_per_packet == 0.0,
          "cache-on fast path performed a heap allocation");

  std::printf(
      "\nalpha=1.2 defended vs. off: p99 %+.1f%%, max/avg load %+.1f%%, "
      "hit rate %.3f\nfast path: %9.0f pkts/s, allocs/pkt %.2f "
      "(hit fraction %.3f)\n",
      -p99_improvement_pct, -load_improvement_pct, defended.hit_rate,
      defended.cached_pps, defended.allocs_per_packet,
      defended.fast_hit_fraction);

  std::vector<std::pair<std::string, double>> fields = {
      {"switches", static_cast<double>(base.switches)},
      {"universe", static_cast<double>(base.universe)},
      {"adapt_ops", static_cast<double>(base.adapt_ops)},
      {"meas_ops", static_cast<double>(base.meas_ops)},
  };
  for (std::size_t a = 0; a < 3; ++a) {
    for (int c = 0; c < 2; ++c) {
      for (int e = 0; e < 2; ++e) {
        const CellResult& r = results[a][c][e];
        const std::string cell = std::string(alabel[a]) + "_cache" +
                                 (c == 1 ? "1" : "0") + "_ext" +
                                 (e == 1 ? "1" : "0");
        fields.emplace_back(cell + "_p50_ms", r.p50_ms);
        fields.emplace_back(cell + "_p99_ms", r.p99_ms);
        fields.emplace_back(cell + "_max_avg_load", r.max_avg_load);
        fields.emplace_back(cell + "_hit_rate", r.hit_rate);
        fields.emplace_back(cell + "_extensions", r.extensions);
      }
    }
  }
  fields.emplace_back("a12_p99_improvement_pct", p99_improvement_pct);
  fields.emplace_back("a12_load_improvement_pct", load_improvement_pct);
  fields.emplace_back("hotspot_cache_hit_rate", defended.hit_rate);
  fields.emplace_back("hotspot_cached_pkts_per_sec", defended.cached_pps);
  fields.emplace_back("hotspot_fast_hit_fraction",
                      defended.fast_hit_fraction);
  fields.emplace_back("hotspot_allocs_per_packet",
                      defended.allocs_per_packet);
  bench::write_json("BENCH_hotspot.json", fields);
  std::printf("\nwrote BENCH_hotspot.json\n");
  return 0;
}
