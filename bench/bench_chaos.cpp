// Chaos bench: the fault-tolerance layer under a seeded crash plan.
// Builds a Waxman edge network with k = 2 replication, kills ~5% of
// the switches mid-run (stale-table windows included), and replays
// fallback retrievals throughout. Reports the survivor success rate,
// mean attempts/fallbacks per retrieval, and the stretch degradation
// of recovered retrievals versus the healthy baseline, plus the
// faults-disabled fast-path throughput — which must stay
// allocation-free: the fault hook costs one predicted branch.
//
// Emits BENCH_chaos.json:
//
//   switches / items / events_planned / switches_killed / items_wiped
//   nofault_pkts_per_sec        fast path, no fault state installed
//   nofault_allocs_per_packet   asserted == 0
//   chaos_retrievals            fallback retrievals during the fault run
//   chaos_success_rate          asserted >= 0.99 (k = 2 survivors)
//   chaos_mean_attempts         route attempts per retrieval
//   chaos_mean_fallbacks        replica re-targets per retrieval
//   chaos_recovered             retrievals that needed a retry to succeed
//   healthy_mean_stretch / chaos_mean_stretch / stretch_degradation_pct
//   post_chaos_pkts_per_sec     fast path after every repair, empty
//   post_chaos_allocs_per_packet  fault state installed (asserted == 0)
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
#include <vector>

#include "bench_util.hpp"
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
    std::fflush(stdout);  // abort() drops buffered output, the summary too
    std::fprintf(stderr, "bench_chaos: check failed: %s\n", what);
    std::abort();
  }
}

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

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header(
      "Chaos", "k-replica placement + fallback retrieval under crashes",
      ">= 99% survivor retrievals succeed; fault hook is allocation-free");

  const std::size_t n = smoke ? 64 : 128;
  const std::size_t items = smoke ? 400 : 1500;
  const std::size_t batch = smoke ? 100 : 200;
  const std::size_t throughput_rounds = smoke ? 5 : 40;

  const topology::EdgeNetwork desc =
      bench::network({.switches = n, .servers_per_switch = 4,
                      .topology_seed = 9200 + n});
  auto built = core::GredSystem::create(desc, bench::gred_options(30));
  require(built.ok(), "GredSystem::create");
  core::GredSystem& sys = built.value();
  require(sys.enable_replication(core::ReplicationOptions{2}).ok(),
          "enable_replication");
  sden::SdenNetwork& network = sys.network();

  Rng rng(77);
  std::vector<std::string> ids;
  std::vector<sden::Packet> pkts;
  std::vector<sden::SwitchId> ingresses;
  ids.reserve(items);
  pkts.reserve(items);
  ingresses.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id = "chaos-" + std::to_string(i);
    require(sys.place(id, "payload-" + id, rng.next_below(n)).ok(), "place");
    ids.push_back(id);
    sden::Packet p;
    p.type = sden::PacketType::kRetrieval;
    p.data_id = id;
    const crypto::DataKey key(id);
    p.target = {key.position().x, key.position().y};
    p.set_key(key);
    pkts.push_back(p);
    ingresses.push_back(rng.next_below(n));
  }

  // --- Faults disabled: baseline throughput, allocs/pkt == 0, and the
  // healthy stretch of the same retrieval mix. ---
  double nofault_allocs = 0.0;
  const double nofault_pps =
      routed_pps(network, pkts, ingresses, throughput_rounds, &nofault_allocs);
  require(nofault_allocs == 0.0,
          "faults-disabled fast path performed a heap allocation");
  double healthy_stretch_sum = 0.0;
  std::size_t healthy_count = 0;
  for (std::size_t i = 0; i < items; ++i) {
    auto out = sys.retrieve_with_fallback(ids[i], ingresses[i]);
    require(out.ok() && out.value().found, "healthy retrieval");
    require(out.value().attempts == 1, "healthy retrieval retried");
    healthy_stretch_sum += out.value().report.stretch;
    ++healthy_count;
  }
  const double healthy_stretch =
      healthy_stretch_sum / static_cast<double>(healthy_count);
  std::printf("baseline: %9.0f pkts/s, allocs/pkt %.2f, stretch %.3f\n",
              nofault_pps, nofault_allocs, healthy_stretch);

  // --- Crash plan: kill ~5% of the switches, stale windows included.
  fault::FaultPlanOptions fopt;
  fopt.event_count = (n + 19) / 20;  // ceil: at least 5% of switches
  fopt.schedule_length = 40 * fopt.event_count;
  fopt.stale_window = 8;
  fopt.crash_weight = 1.0;
  fopt.link_down_weight = 0.0;
  fopt.flaky_weight = 0.0;
  fopt.seed = 4242;
  auto plan = fault::FaultPlan::generate(network.description(), fopt);
  require(plan.ok(), "FaultPlan::generate");
  const std::size_t planned = plan.value().events().size();
  const std::size_t kills = plan.value().switch_crashes();
  require(kills * 20 >= n, "plan kills fewer than 5% of switches");

  std::set<std::size_t> deadlines;
  for (const auto& e : plan.value().events()) {
    deadlines.insert(e.at_event);
    deadlines.insert(e.repair_at);
  }

  fault::FaultSession session(sys, std::move(plan).value());
  core::RetryPolicy policy;
  policy.max_attempts = 4;

  auto alive_ingress = [&]() -> sden::SwitchId {
    const auto& parts = sys.controller().space().participants();
    for (;;) {
      const sden::SwitchId s = parts[rng.next_below(parts.size())];
      if (!session.state().switch_is_down(s)) return s;
    }
  };

  std::size_t retrievals = 0;
  std::size_t successes = 0;
  std::size_t attempts_total = 0;
  std::size_t fallbacks_total = 0;
  std::size_t recovered_total = 0;
  double chaos_stretch_sum = 0.0;
  std::size_t chaos_stretch_count = 0;
  for (const std::size_t t : deadlines) {
    auto advanced = session.advance(t);
    require(advanced.ok(), "FaultSession::advance");
    for (std::size_t i = 0; i < batch; ++i) {
      const std::string& id = ids[rng.next_below(ids.size())];
      auto out = sys.retrieve_with_fallback(id, alive_ingress(), policy);
      require(out.ok(), "fallback retrieval returned unclassified error");
      ++retrievals;
      attempts_total += out.value().attempts;
      fallbacks_total += out.value().fallbacks;
      if (out.value().found) {
        ++successes;
        if (out.value().recovered) ++recovered_total;
        chaos_stretch_sum += out.value().report.stretch;
        ++chaos_stretch_count;
      }
    }
  }
  auto finished = session.finish();
  require(finished.ok(), "FaultSession::finish");
  require(!session.state().any(), "fault state not empty after finish");

  // k = 2 with one crash repaired at a time: every item survives, so
  // the success-rate denominator is all retrievals.
  const double success_rate =
      static_cast<double>(successes) / static_cast<double>(retrievals);
  const double mean_attempts =
      static_cast<double>(attempts_total) / static_cast<double>(retrievals);
  const double mean_fallbacks =
      static_cast<double>(fallbacks_total) / static_cast<double>(retrievals);
  const double chaos_stretch =
      chaos_stretch_sum / static_cast<double>(chaos_stretch_count);
  const double stretch_degradation_pct =
      (chaos_stretch - healthy_stretch) / healthy_stretch * 100.0;
  std::printf(
      "chaos: %zu crashes (of %zu switches), %zu items wiped\n"
      "       %zu retrievals, success %.4f, attempts %.3f, fallbacks %.3f, "
      "recovered %zu\n"
      "       stretch %.3f (healthy %.3f, degradation %+.1f%%)\n",
      kills, n, session.items_wiped(), retrievals, success_rate,
      mean_attempts, mean_fallbacks, recovered_total, chaos_stretch,
      healthy_stretch, stretch_degradation_pct);

  // --- After all repairs: fast path with the (empty) fault state
  // still installed — the steady-state cost is one predicted branch
  // and must stay allocation-free. Items moved during repairs, so
  // retarget each packet at its current primary home. ---
  std::vector<sden::Packet> post_pkts;
  post_pkts.reserve(items);
  std::vector<sden::SwitchId> post_ingresses;
  post_ingresses.reserve(items);
  for (const std::string& id : ids) {
    sden::Packet p;
    p.type = sden::PacketType::kRetrieval;
    p.data_id = id;
    const crypto::DataKey key(id);
    p.target = {key.position().x, key.position().y};
    p.set_key(key);
    post_pkts.push_back(p);
    post_ingresses.push_back(alive_ingress());
  }
  double post_allocs = 0.0;
  const double post_pps = routed_pps(network, post_pkts, post_ingresses,
                                     throughput_rounds, &post_allocs);
  require(post_allocs == 0.0,
          "post-chaos fast path performed a heap allocation");
  std::printf("post-chaos: %9.0f pkts/s, allocs/pkt %.2f\n", post_pps,
              post_allocs);

  bench::write_json(
      "BENCH_chaos.json",
      {
          {"switches", static_cast<double>(n)},
          {"items", static_cast<double>(items)},
          {"events_planned", static_cast<double>(planned)},
          {"switches_killed", static_cast<double>(kills)},
          {"items_wiped", static_cast<double>(session.items_wiped())},
          {"nofault_pkts_per_sec", nofault_pps},
          {"nofault_allocs_per_packet", nofault_allocs},
          {"chaos_retrievals", static_cast<double>(retrievals)},
          {"chaos_success_rate", success_rate},
          {"chaos_mean_attempts", mean_attempts},
          {"chaos_mean_fallbacks", mean_fallbacks},
          {"chaos_recovered", static_cast<double>(recovered_total)},
          {"healthy_mean_stretch", healthy_stretch},
          {"chaos_mean_stretch", chaos_stretch},
          {"stretch_degradation_pct", stretch_degradation_pct},
          {"post_chaos_pkts_per_sec", post_pps},
          {"post_chaos_allocs_per_packet", post_allocs},
      });
  std::printf("\nwrote BENCH_chaos.json\n");
  // Checked last, so a failing run still prints its summary and writes
  // its JSON.
  require(success_rate >= 0.99, "survivor success rate below 99%");
  return 0;
}
