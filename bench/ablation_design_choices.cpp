// Ablations for the design choices DESIGN.md calls out:
//   A. C-regulation sampling density (paper: 1000 samples/iteration)
//   B. Embedding dimension (paper: 2-D) — MDS stress at m = 1, 2, 3
//   C. Chord virtual nodes — balance vs routing-state trade-off
//   D. Replication degree — read locality (mean retrieval hops)
#include <cstdio>

#include "bench_util.hpp"
#include "kad/kademlia.hpp"
#include "linalg/mds.hpp"
#include "topology/presets.hpp"

using namespace gred;

namespace {

void ablate_cvt_samples() {
  std::printf("\n[A] C-regulation sampling density (T = 50, 100k items, "
              "60 switches x 10 servers)\n");
  const auto ids = eval::workload_ids(100000, 21);
  Table table({"samples/iter", "max/avg", "Jain fairness"});
  for (std::size_t samples : {100u, 500u, 1000u, 5000u, 20000u}) {
    const topology::EdgeNetwork net =
        bench::network({.switches = 60, .topology_seed = 8000});
    core::VirtualSpaceOptions opt = bench::gred_options(50);
    opt.cvt_samples = samples;
    auto sys = core::GredSystem::create(net, opt);
    if (!sys.ok()) std::abort();
    const auto report =
        eval::measure_gred_balance(sys.value(), ids).report;
    table.add_row({std::to_string(samples), Table::fmt(report.max_over_avg),
                   Table::fmt(report.jain)});
  }
  std::printf("%s", table.to_string().c_str());
}

void ablate_embedding_dimension() {
  std::printf("\n[B] Embedding dimension: Kruskal stress of the M-position "
              "embedding (100-switch Waxman)\n");
  const topology::EdgeNetwork net =
      bench::network({.switches = 100, .topology_seed = 8100});
  const auto apsp = graph::all_pairs_shortest_paths(net.switches());
  linalg::Matrix dist(100, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 100; ++j) dist(i, j) = apsp.dist(i, j);
  }
  Table table({"dimensions m", "Kruskal stress-1"});
  for (std::size_t m : {1u, 2u, 3u, 4u}) {
    auto mds = linalg::classical_mds(dist, m);
    if (!mds.ok()) std::abort();
    table.add_row({std::to_string(m), Table::fmt(mds.value().stress, 4)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("The paper routes on m = 2: the DT/greedy machinery needs a "
              "plane, and stress improves little beyond 2.\n");
}

void ablate_chord_virtual_nodes() {
  std::printf("\n[C] Chord virtual nodes: balance vs routing state "
              "(50 switches x 10 servers, 100k items)\n");
  const topology::EdgeNetwork net =
      bench::network({.switches = 50, .topology_seed = 8200});
  const auto ids = eval::workload_ids(100000, 22);
  Table table({"virtual nodes", "max/avg", "finger entries/server"});
  for (unsigned v : {1u, 2u, 4u, 8u, 16u}) {
    chord::ChordOptions opt;
    opt.virtual_nodes = v;
    auto ring = chord::ChordRing::build(net, opt);
    if (!ring.ok()) std::abort();
    const double bal =
        eval::measure_chord_balance(ring.value(), net, ids).report.max_over_avg;
    table.add_row(
        {std::to_string(v), Table::fmt(bal),
         Table::fmt(eval::mean_chord_fingers(ring.value(), net), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("Chord can buy balance with virtual nodes but pays in routing "
              "state — the trade-off Section II-A cites.\n");
}

void ablate_replication() {
  std::printf("\n[D] Replication degree: nearest-replica read locality "
              "(8x8 grid, 2 servers/switch)\n");
  Table table({"copies k", "mean retrieval hops"});
  for (unsigned k : {1u, 2u, 3u, 4u, 6u}) {
    const topology::EdgeNetwork net = topology::uniform_edge_network(
        topology::grid(8, 8), 2);
    auto sys = core::GredSystem::create(net, bench::gred_options(30));
    if (!sys.ok()) std::abort();
    Rng rng(23 + k);
    RunningStats hops;
    for (int i = 0; i < 50; ++i) {
      const std::string id = "ritem-" + std::to_string(i);
      if (!sys.value().place_replicated(id, "v", k, 0).ok()) std::abort();
      for (int reads = 0; reads < 4; ++reads) {
        auto r = sys.value().retrieve_nearest_replica(
            id, k, rng.next_below(64));
        if (!r.ok() || !r.value().route.found) std::abort();
        hops.add(static_cast<double>(r.value().selected_hops));
      }
    }
    table.add_row({std::to_string(k), Table::fmt(hops.mean(), 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("More copies cut read distance (Section VI): the virtual-space "
              "distance picks the closest replica without a directory.\n");
}

void ablate_latency_embedding() {
  std::printf("\n[E] Hop-count vs latency-weighted embedding on a "
              "latency-weighted Waxman network (80 switches)\n");
  // Link weight = geographic latency (ms).
  const topology::EdgeNetwork net = bench::network(
      {.switches = 80, .topology_seed = 31, .latency_weights = true});

  Table table({"embedding", "hop stretch", "latency stretch"});
  for (bool weighted : {false, true}) {
    core::VirtualSpaceOptions opt = bench::gred_options(50);
    opt.weighted_embedding = weighted;
    auto sys = core::GredSystem::create(net, opt);
    if (!sys.ok()) std::abort();
    Rng arng(77);
    RunningStats hop, lat;
    for (int i = 0; i < 200; ++i) {
      auto r = sys.value().place("lat-" + std::to_string(i), "",
                                 arng.next_below(80));
      if (!r.ok()) std::abort();
      hop.add(r.value().stretch);
      lat.add(r.value().latency_stretch);
    }
    table.add_row({weighted ? "latency-weighted" : "hop-count",
                   Table::fmt(hop.mean(), 3), Table::fmt(lat.mean(), 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("Embedding the latency metric trades a little hop stretch for "
              "better latency stretch when links are heterogeneous.\n");
}

void ablate_embedding_algorithm() {
  std::printf("\n[F] Embedding algorithm: M-position (classical MDS) vs "
              "Vivaldi spring relaxation (80-switch Waxman, T = 50)\n");
  const topology::EdgeNetwork net =
      bench::network({.switches = 80, .topology_seed = 8300});
  Table table({"embedding", "stress", "mean stretch", "max/avg (100k items)"});
  const auto ids = eval::workload_ids(100000, 24);
  for (auto algo : {core::EmbeddingAlgorithm::kMPosition,
                    core::EmbeddingAlgorithm::kVivaldi}) {
    core::VirtualSpaceOptions opt = bench::gred_options(50);
    opt.embedding = algo;
    auto sys = core::GredSystem::create(net, opt);
    if (!sys.ok()) std::abort();
    Rng rng(25);
    RunningStats stretch;
    for (int i = 0; i < 150; ++i) {
      auto r = sys.value().place("emb-" + std::to_string(i), "",
                                 rng.next_below(80));
      if (!r.ok()) std::abort();
      stretch.add(r.value().stretch);
    }
    const double bal =
        eval::measure_gred_balance(sys.value(), ids).report.max_over_avg;
    table.add_row(
        {algo == core::EmbeddingAlgorithm::kMPosition ? "M-position"
                                                      : "Vivaldi",
         Table::fmt(sys.value().controller().space().embedding_stress(), 3),
         Table::fmt(stretch.mean(), 3), Table::fmt(bal, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("A decentralized embedding is a viable drop-in; the paper's "
              "M-position needs global topology knowledge the SDN "
              "controller already has.\n");
}

void ablate_second_dht_baseline() {
  std::printf("\n[G] Second DHT baseline: GRED vs Chord vs Kademlia "
              "(60 switches x 10 servers, 100 lookups, 100k items)\n");
  const topology::EdgeNetwork net =
      bench::network({.switches = 60, .topology_seed = 8400});
  const auto apsp = graph::all_pairs_shortest_paths(net.switches());
  auto gred = core::GredSystem::create(net, bench::gred_options(50));
  auto ring = chord::ChordRing::build(net);
  auto kad_net = kad::KademliaNetwork::build(net);
  if (!gred.ok() || !ring.ok() || !kad_net.ok()) std::abort();

  Rng rng(26);
  RunningStats gred_s, chord_s, kad_s;
  for (int i = 0; i < 100; ++i) {
    const std::string id = "dht-" + std::to_string(i);
    const crypto::DataKey key(id);
    auto r = gred.value().place(id, "", rng.next_below(60));
    if (!r.ok()) std::abort();
    gred_s.add(r.value().stretch);
    const topology::ServerId origin = rng.next_below(net.server_count());
    chord_s.add(chord::measure_lookup(ring.value(), net, apsp, origin,
                                      key.prefix64())
                    .stretch);
    kad_s.add(kad_net.value()
                  .measure_lookup(net, apsp, origin, key.prefix64())
                  .stretch);
  }

  const auto ids = eval::workload_ids(100000, 27);
  const double gred_bal =
      eval::measure_gred_balance(gred.value(), ids).report.max_over_avg;
  const double chord_bal =
      eval::measure_chord_balance(ring.value(), net, ids).report.max_over_avg;
  std::vector<std::size_t> kad_loads(net.server_count(), 0);
  for (const std::string& id : ids) {
    ++kad_loads[kad_net.value().closest_server(
        crypto::DataKey(id).prefix64())];
  }
  const double kad_bal = core::load_balance(kad_loads).max_over_avg;

  Table table({"protocol", "mean stretch", "max/avg"});
  table.add_row({"GRED (T=50)", Table::fmt(gred_s.mean(), 3),
                 Table::fmt(gred_bal, 3)});
  table.add_row({"Chord", Table::fmt(chord_s.mean(), 3),
                 Table::fmt(chord_bal, 3)});
  table.add_row({"Kademlia (k=8)", Table::fmt(kad_s.mean(), 3),
                 Table::fmt(kad_bal, 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("The overlay/underlay mismatch is not a Chord quirk: any "
              "multi-hop DHT pays it; GRED's one-hop design is what wins.\n");
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice sensitivity studies",
                      "see each section");
  ablate_cvt_samples();
  ablate_embedding_dimension();
  ablate_chord_virtual_nodes();
  ablate_replication();
  ablate_latency_embedding();
  ablate_embedding_algorithm();
  ablate_second_dht_baseline();
  return 0;
}
