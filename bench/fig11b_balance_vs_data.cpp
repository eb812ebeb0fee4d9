// Fig. 11(b): load balance (max/avg) vs the amount of data — 100k to
// 1M items on 1000 edge servers (Section VII-E2). Expectation: Chord's
// max/avg above 6; GRED(T=10) below 2.5; GRED(T=50) below 2.
#include <cstdio>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 11(b)",
      "load balance max/avg vs amount of data (1000 edge servers)",
      "Chord > 6; GRED(T=10) < 2.5; GRED(T=50) < 2");

  const topology::EdgeNetwork net =
      bench::network({.switches = 100, .topology_seed = 6000});
  auto sys10 = core::GredSystem::create(net, bench::gred_options(10));
  auto sys50 = core::GredSystem::create(net, bench::gred_options(50));
  auto ring = chord::ChordRing::build(net);
  if (!sys10.ok() || !sys50.ok() || !ring.ok()) return 1;

  Table table({"data items", "Chord", "GRED (T=10)", "GRED (T=50)"});
  // Rows share the systems but only read the placement functions.
  const std::vector<std::size_t> item_counts = {100000, 250000, 500000,
                                                750000, 1000000};
  std::vector<std::vector<std::string>> rows(item_counts.size());
  bench::parallel_trials(item_counts.size(), [&](std::size_t k) {
    const auto ids = eval::workload_ids(item_counts[k], 12);
    const double chord_bal =
        eval::measure_chord_balance(ring.value(), net, ids).report.max_over_avg;
    const double g10 =
        eval::measure_gred_balance(sys10.value(), ids).report.max_over_avg;
    const double g50 =
        eval::measure_gred_balance(sys50.value(), ids).report.max_over_avg;
    rows[k] = {std::to_string(item_counts[k]), Table::fmt(chord_bal),
               Table::fmt(g10), Table::fmt(g50)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
