// Fig. 11(a): load balance (max/avg) vs network size — Chord vs
// GRED(T=10) vs GRED(T=50). 200..1000 edge servers (20..100 switches,
// 10 servers each), 100,000 data items (Section VII-E1). Expectation:
// Chord's max/avg grows with size; GRED stays nearly flat, and T=50
// beats T=10.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 11(a)", "load balance max/avg vs number of edge servers",
      "Chord grows with size; GRED(T=50) < GRED(T=10), both nearly flat");

  const std::size_t items = 100000;
  const auto ids = eval::workload_ids(items, 11);

  Table table({"servers", "Chord", "GRED (T=10)", "GRED (T=50)"});
  const std::vector<std::size_t> sizes = {20, 40, 60, 80, 100};
  std::vector<std::vector<std::string>> rows(sizes.size());
  bench::parallel_trials(sizes.size(), [&](std::size_t k) {
    const std::size_t n = sizes[k];
    const topology::EdgeNetwork net =
        bench::network({.switches = n, .topology_seed = 5000 + n});

    auto sys10 = core::GredSystem::create(net, bench::gred_options(10));
    auto sys50 = core::GredSystem::create(net, bench::gred_options(50));
    auto ring = chord::ChordRing::build(net);
    if (!sys10.ok() || !sys50.ok() || !ring.ok()) std::abort();

    const double chord_bal =
        eval::measure_chord_balance(ring.value(), net, ids).report.max_over_avg;
    const double g10 =
        eval::measure_gred_balance(sys10.value(), ids).report.max_over_avg;
    const double g50 =
        eval::measure_gred_balance(sys50.value(), ids).report.max_over_avg;

    rows[k] = {std::to_string(net.server_count()), Table::fmt(chord_bal),
               Table::fmt(g10), Table::fmt(g50)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
