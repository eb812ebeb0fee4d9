// Fig. 9(d): average number of forwarding table entries per switch vs
// network size, with 90% CIs (Section VII-D). Expectation: a small
// count growing only modestly with the network size — independent of
// the number of flows. For perspective we also print Chord's routing
// state per server (distinct finger entries).
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 9(d)", "forwarding table entries per switch vs network size",
      "few entries, modest growth with network size");

  Table table({"switches", "GRED entries/switch (90% CI)",
               "GRED min..max", "Chord fingers/server (mean)"});
  const std::vector<std::size_t> sizes = {20, 50, 100, 150, 200};
  std::vector<std::vector<std::string>> rows(sizes.size());
  bench::parallel_trials(sizes.size(), [&](std::size_t k) {
    const std::size_t n = sizes[k];
    const topology::EdgeNetwork net =
        bench::network({.switches = n, .topology_seed = 4000 + n});
    auto sys = core::GredSystem::create(net, bench::gred_options(50));
    auto ring = chord::ChordRing::build(net);
    if (!sys.ok() || !ring.ok()) std::abort();

    const Summary s = eval::measure_table_entries(sys.value().network());
    const double chord_mean = eval::mean_chord_fingers(ring.value(), net);

    rows[k] = {std::to_string(n), bench::mean_ci_cell(s, 2),
               Table::fmt(s.min, 0) + ".." + Table::fmt(s.max, 0),
               Table::fmt(chord_mean, 2)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
