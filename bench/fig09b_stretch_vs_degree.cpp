// Fig. 9(b): routing stretch vs the minimal degree of switches.
// 100 switches, 1000 edge servers, min degree 3..10 (Section VII-C2).
// Expectation: GRED variants far below Chord; stretch decreases
// slightly as the degree grows (greedy finds shorter paths).
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 9(b)",
      "routing stretch vs minimal switch degree (100 switches, 1000 servers)",
      "GRED variants well below Chord; slight decrease with degree");

  Table table({"min degree", "Chord", "GRED", "GRED-NoCVT"});
  const std::size_t first_degree = 3, last_degree = 10;
  std::vector<std::vector<std::string>> rows(last_degree - first_degree + 1);
  bench::parallel_trials(rows.size(), [&](std::size_t k) {
    const std::size_t degree = first_degree + k;
    const topology::EdgeNetwork net =
        bench::network({.switches = 100, .min_degree = degree,
                        .topology_seed = 2000 + degree});

    auto gred_sys = core::GredSystem::create(net, bench::gred_options(50));
    auto nocvt_sys = core::GredSystem::create(net, bench::nocvt_options());
    auto ring = chord::ChordRing::build(net);
    if (!gred_sys.ok() || !nocvt_sys.ok() || !ring.ok()) std::abort();

    const Summary chord_s =
        eval::measure_chord_stretch(
            ring.value(), net, graph::all_pairs_shortest_paths(net.switches()),
            {.items = 100, .seed = degree})
            .hop_stretch;
    const Summary gred_s =
        eval::measure_gred_stretch(gred_sys.value(),
                                   {.items = 100, .seed = degree})
            .hop_stretch;
    const Summary nocvt_s =
        eval::measure_gred_stretch(nocvt_sys.value(),
                                   {.items = 100, .seed = degree + 50})
            .hop_stretch;
    if (gred_s.count != 100 || nocvt_s.count != 100) std::abort();

    rows[k] = {std::to_string(degree), bench::mean_ci_cell(chord_s),
               bench::mean_ci_cell(gred_s), bench::mean_ci_cell(nocvt_s)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
