// Fig. 9(a): routing stretch vs network size — Chord vs GRED vs
// GRED-NoCVT. Waxman topologies, 10 edge servers per switch, 100 data
// items per point, each with a random access point; error bars are 90%
// CIs (Section VII-B/C1). Expectation: Chord > 3.5 everywhere; both
// GRED variants < 1.5 (GRED uses < 30% of Chord's routing cost).
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 9(a)", "routing stretch vs number of switches",
      "Chord > 3.5 and growing; GRED and GRED-NoCVT < 1.5, flat");

  Table table({"switches", "servers", "Chord", "GRED", "GRED-NoCVT"});
  const std::vector<std::size_t> sizes = {20, 50, 100, 150, 200};
  std::vector<std::vector<std::string>> rows(sizes.size());
  bench::parallel_trials(sizes.size(), [&](std::size_t k) {
    const std::size_t n = sizes[k];
    const topology::EdgeNetwork net =
        bench::network({.switches = n, .topology_seed = 1000 + n});

    auto gred_sys = core::GredSystem::create(net, bench::gred_options(50));
    auto nocvt_sys = core::GredSystem::create(net, bench::nocvt_options());
    auto ring = chord::ChordRing::build(net);
    if (!gred_sys.ok() || !nocvt_sys.ok() || !ring.ok()) std::abort();

    const Summary chord_s =
        eval::measure_chord_stretch(
            ring.value(), net, graph::all_pairs_shortest_paths(net.switches()),
            {.items = 100, .seed = n})
            .hop_stretch;
    const Summary gred_s =
        eval::measure_gred_stretch(gred_sys.value(), {.items = 100, .seed = n})
            .hop_stretch;
    const Summary nocvt_s =
        eval::measure_gred_stretch(nocvt_sys.value(),
                                   {.items = 100, .seed = n + 1})
            .hop_stretch;
    if (gred_s.count != 100 || nocvt_s.count != 100) std::abort();

    rows[k] = {std::to_string(n), std::to_string(net.server_count()),
               bench::mean_ci_cell(chord_s), bench::mean_ci_cell(gred_s),
               bench::mean_ci_cell(nocvt_s)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
