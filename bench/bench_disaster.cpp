// Disaster bench: correlated region kills vs the replica placement
// policy. For each replication factor k in {1, 2, 3} the same Waxman
// network is run twice — naive nearest-k homes vs region-diverse
// homes (a G x G partition of the virtual space, kill box aligned
// with the replication regions) — under an identical seeded region
// kill that destroys every switch in one box of the virtual space.
//
// Reported per (k, variant), all under the same disaster timeline:
//
//   RPO  items_lost           items destroyed outright (no surviving
//                             copy at any point of the timeline)
//        items_unavailable    items unreachable at some point (the
//                             transient superset of items_lost)
//   RTO  rto_events           event-clock steps from the kill until
//                             the last affected item was back at full
//                             factor and routable (0 = never degraded)
//   survivor_delay_p99_ms     p99 modeled response delay of successful
//                             fallback retrievals during the timeline:
//                             backoff_ms + path cost x 0.05 ms/hop +
//                             0.20 ms service (DelayModelOptions
//                             defaults)
//   success_rate              found / issued retrievals (lost items
//                             drag this down for the naive variants)
//
// Emits BENCH_disaster.json and hard-fails unless region-diverse
// k = 2 loses strictly fewer items than naive nearest-k — and in fact
// loses ZERO, since the kill box is exactly one replication region —
// and the healthy fast path stays allocation-free.
//
// `--smoke` shrinks the topology and round counts for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "crypto/data_key.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_session.hpp"
#include "sden/network.hpp"

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
    std::fprintf(stderr, "bench_disaster: check failed: %s\n", what);
    std::abort();
  }
}

// Delay model constants, matching DelayModelOptions defaults.
constexpr double kLinkLatencyMs = 0.05;
constexpr double kServiceTimeMs = 0.20;

/// Steady-state fast-path throughput over the prepared packets, with
/// the allocation counter checked across the timed region.
double routed_pps(sden::SdenNetwork& network,
                  const std::vector<sden::Packet>& pkts,
                  const std::vector<sden::SwitchId>& ingresses,
                  std::size_t rounds, double* allocs_per_packet) {
  sden::RouteResult scratch;
  sden::Packet pkt_scratch;
  // Warm-up: sizes scratch capacity so the timed region is steady.
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkt_scratch = pkts[i];
    network.route(pkt_scratch, ingresses[i], scratch);
    require(scratch.status.ok() && scratch.found, "warm-up route");
  }
  const std::size_t a0 = g_allocs;
  const double t0 = now_s();
  std::size_t total = 0;
  for (std::size_t rd = 0; rd < rounds; ++rd) {
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      pkt_scratch = pkts[i];
      network.route(pkt_scratch, ingresses[i], scratch);
      ++total;
    }
  }
  const double elapsed = now_s() - t0;
  *allocs_per_packet =
      static_cast<double>(g_allocs - a0) / static_cast<double>(total);
  return static_cast<double>(total) / elapsed;
}

struct VariantResult {
  std::size_t items_lost = 0;
  std::size_t items_unavailable = 0;
  std::size_t rto_events = 0;
  double survivor_delay_p99_ms = 0.0;
  double success_rate = 0.0;
  std::size_t retrievals = 0;
  std::size_t kill_members = 0;
  std::size_t kill_at = 0;
};

struct RunConfig {
  std::size_t switches = 0;
  std::size_t items = 0;
  std::size_t batch = 0;  ///< fallback retrievals per fault deadline
  std::size_t region_grid = 3;
  std::uint64_t topo_seed = 0;
  std::uint64_t plan_seed = 0;
};

/// One full disaster timeline on a fresh system. Both variants get
/// identical topologies and therefore identical CVT embeddings, so the
/// seeded plan kills the exact same region members either way — the
/// only difference under test is where the replicas live.
VariantResult run_variant(const RunConfig& cfg, std::size_t k,
                          bool diverse) {
  const topology::EdgeNetwork desc =
      bench::network({.switches = cfg.switches, .servers_per_switch = 4,
                      .topology_seed = cfg.topo_seed});
  auto built = core::GredSystem::create(desc, bench::gred_options(30));
  require(built.ok(), "GredSystem::create");
  core::GredSystem& sys = built.value();
  core::ReplicationOptions ropts;
  ropts.factor = k;
  ropts.region_diverse = diverse;
  ropts.region_grid = cfg.region_grid;
  require(sys.enable_replication(ropts).ok(), "enable_replication");

  Rng rng(0xD15A57E8u + k);
  std::vector<std::string> ids;
  ids.reserve(cfg.items);
  for (std::size_t i = 0; i < cfg.items; ++i) {
    const std::string id = "dis-" + std::to_string(i);
    require(sys.place(id, "payload-" + id, rng.next_below(cfg.switches)).ok(),
            "place");
    ids.push_back(id);
  }

  // One box kill aligned with the replication regions.
  fault::DisasterPlanOptions dopt;
  dopt.region_kills = 1;
  dopt.partitions = 0;
  dopt.region_shape = fault::RegionShape::kBox;
  dopt.box_grid = cfg.region_grid;
  dopt.schedule_length = 80;
  dopt.stale_window = 12;
  dopt.seed = cfg.plan_seed;
  auto plan = fault::FaultPlan::generate_disasters(
      sys.network().description(), sys.controller().space().participants(),
      sys.controller().space().positions(), dopt);
  require(plan.ok(), "FaultPlan::generate_disasters");
  require(plan.value().count(fault::FaultKind::kRegionKill) == 1,
          "plan holds one region kill");

  VariantResult out;
  std::set<std::size_t> deadlines;
  for (const auto& e : plan.value().events()) {
    out.kill_members = e.members.size();
    out.kill_at = e.at_event;
    deadlines.insert(e.at_event);
    deadlines.insert(e.repair_at);
  }
  require(out.kill_members >= 2, "kill box too small to be correlated");

  fault::FaultSession session(sys, std::move(plan).value());
  session.enable_recovery_tracking();
  core::RetryPolicy policy;
  policy.max_attempts = 4;

  auto alive_ingress = [&]() -> sden::SwitchId {
    const auto& parts = sys.controller().space().participants();
    for (;;) {
      const sden::SwitchId s = parts[rng.next_below(parts.size())];
      if (!session.state().switch_is_down(s)) return s;
    }
  };

  std::size_t found = 0;
  std::vector<double> delays;
  delays.reserve(deadlines.size() * cfg.batch);
  for (const std::size_t t : deadlines) {
    require(session.advance(t).ok(), "FaultSession::advance");
    for (std::size_t i = 0; i < cfg.batch; ++i) {
      const std::string& id = ids[rng.next_below(ids.size())];
      auto r = sys.retrieve_with_fallback(id, alive_ingress(), policy);
      require(r.ok(), "fallback retrieval returned unclassified error");
      ++out.retrievals;
      if (!r.value().found) continue;
      ++found;
      delays.push_back(r.value().backoff_ms +
                       r.value().report.selected_cost * kLinkLatencyMs +
                       kServiceTimeMs);
    }
  }
  require(session.finish().ok(), "FaultSession::finish");
  require(!session.state().any(), "fault state not empty after finish");

  out.items_lost = session.items_lost();
  out.items_unavailable = session.items_ever_unavailable();
  for (const auto& [id, rec] : session.recovery()) {
    if (rec.restored_at == fault::RecoveryRecord::kNever) continue;
    if (rec.restored_at <= out.kill_at) continue;
    out.rto_events =
        std::max(out.rto_events, rec.restored_at - out.kill_at);
  }
  out.survivor_delay_p99_ms = summarize(std::move(delays)).p99;
  out.success_rate =
      static_cast<double>(found) / static_cast<double>(out.retrievals);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Disaster", "correlated region kill vs replica placement policy",
      "region-diverse k = 2 loses zero items; naive nearest-k loses data");

  RunConfig cfg;
  cfg.switches = smoke ? 48 : 96;
  cfg.items = smoke ? 300 : 900;
  cfg.batch = smoke ? 40 : 120;
  cfg.region_grid = 3;
  cfg.topo_seed = 9300 + cfg.switches;
  cfg.plan_seed = 20260809;

  // --- Healthy fast path on the region-diverse k = 2 deployment: the
  // disaster machinery must cost nothing before the disaster. ---
  double nofault_pps = 0.0;
  double nofault_allocs = 0.0;
  {
    const topology::EdgeNetwork desc =
        bench::network({.switches = cfg.switches, .servers_per_switch = 4,
                        .topology_seed = cfg.topo_seed});
    auto built = core::GredSystem::create(desc, bench::gred_options(30));
    require(built.ok(), "GredSystem::create");
    core::GredSystem& sys = built.value();
    core::ReplicationOptions ropts;
    ropts.factor = 2;
    ropts.region_diverse = true;
    ropts.region_grid = cfg.region_grid;
    require(sys.enable_replication(ropts).ok(), "enable_replication");
    Rng rng(41);
    std::vector<sden::Packet> pkts;
    std::vector<sden::SwitchId> ingresses;
    for (std::size_t i = 0; i < cfg.items; ++i) {
      const std::string id = "dis-" + std::to_string(i);
      require(sys.place(id, "payload-" + id, rng.next_below(cfg.switches)).ok(),
              "place");
      sden::Packet p;
      p.type = sden::PacketType::kRetrieval;
      p.data_id = id;
      const crypto::DataKey key(id);
      p.target = {key.position().x, key.position().y};
      p.set_key(key);
      pkts.push_back(p);
      ingresses.push_back(rng.next_below(cfg.switches));
    }
    nofault_pps = routed_pps(sys.network(), pkts, ingresses,
                             smoke ? 5 : 40, &nofault_allocs);
    require(nofault_allocs == 0.0,
            "healthy fast path performed a heap allocation");
    std::printf("healthy: %9.0f pkts/s, allocs/pkt %.2f\n\n", nofault_pps,
                nofault_allocs);
  }

  // --- The k sweep: same topology, same kill, two placement policies.
  std::vector<std::pair<std::string, double>> fields = {
      {"switches", static_cast<double>(cfg.switches)},
      {"items", static_cast<double>(cfg.items)},
      {"region_grid", static_cast<double>(cfg.region_grid)},
      {"nofault_pkts_per_sec", nofault_pps},
      {"nofault_allocs_per_packet", nofault_allocs},
  };
  VariantResult naive2;
  VariantResult diverse2;
  std::printf("%-14s %5s %5s %5s %5s %9s %8s\n", "variant", "k", "lost",
              "unavl", "rto", "p99(ms)", "success");
  for (std::size_t k = 1; k <= 3; ++k) {
    for (const bool diverse : {false, true}) {
      const VariantResult r = run_variant(cfg, k, diverse);
      const std::string tag =
          "k" + std::to_string(k) + (diverse ? "_diverse" : "_naive");
      std::printf("%-14s %5zu %5zu %5zu %5zu %9.3f %8.4f\n",
                  diverse ? "region-diverse" : "naive", k, r.items_lost,
                  r.items_unavailable, r.rto_events, r.survivor_delay_p99_ms,
                  r.success_rate);
      fields.emplace_back(tag + "_items_lost",
                          static_cast<double>(r.items_lost));
      fields.emplace_back(tag + "_items_unavailable",
                          static_cast<double>(r.items_unavailable));
      fields.emplace_back(tag + "_rto_events",
                          static_cast<double>(r.rto_events));
      fields.emplace_back(tag + "_survivor_delay_p99_ms",
                          r.survivor_delay_p99_ms);
      fields.emplace_back(tag + "_success_rate", r.success_rate);
      if (k == 2 && diverse) diverse2 = r;
      if (k == 2 && !diverse) naive2 = r;
      if (k == 2 && !diverse) {
        fields.emplace_back("region_members_killed",
                            static_cast<double>(r.kill_members));
        fields.emplace_back("kill_at_event", static_cast<double>(r.kill_at));
      }
    }
  }

  // The tentpole claim: with the kill box equal to one replication
  // region, region-diverse k = 2 keeps a copy of every item outside
  // the box — zero loss — while naive nearest-2 homes co-locate and
  // lose whatever lived only there.
  require(diverse2.items_lost < naive2.items_lost,
          "region-diverse k=2 must lose strictly fewer items than naive");
  require(diverse2.items_lost == 0, "region-diverse k=2 lost items");
  std::printf("\nk=2: naive lost %zu, region-diverse lost %zu\n",
              naive2.items_lost, diverse2.items_lost);

  bench::write_json("BENCH_disaster.json", fields);
  std::printf("wrote BENCH_disaster.json\n");
  return 0;
}
