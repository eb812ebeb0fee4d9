// Fig. 11(c): load balance (max/avg) vs the number of C-regulation
// iterations T, with 100,000 items (Section VII-E3). Chord and
// GRED-NoCVT are independent of T (flat lines). Expectation: GRED's
// max/avg decreases as T grows, dropping below 2 for T >= 20 and
// plateauing around T = 70.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 11(c)", "load balance max/avg vs C-regulation iterations T",
      "GRED falls with T, < 2 beyond T=20, plateau near T=70; Chord and "
      "GRED-NoCVT flat");

  const std::size_t items = 100000;
  const auto ids = eval::workload_ids(items, 13);
  const topology::EdgeNetwork net =
      bench::network({.switches = 100, .topology_seed = 7000});

  auto ring = chord::ChordRing::build(net);
  auto nocvt = core::GredSystem::create(net, bench::nocvt_options());
  if (!ring.ok() || !nocvt.ok()) return 1;
  const double chord_bal =
      eval::measure_chord_balance(ring.value(), net, ids).report.max_over_avg;
  const double nocvt_bal =
      eval::measure_gred_balance(nocvt.value(), ids).report.max_over_avg;

  Table table({"T", "GRED", "GRED-NoCVT", "Chord"});
  const std::vector<std::size_t> iters = {0,  10, 20, 30, 40, 50,
                                          60, 70, 80, 90, 100};
  std::vector<std::vector<std::string>> rows(iters.size());
  bench::parallel_trials(iters.size(), [&](std::size_t k) {
    const std::size_t t = iters[k];
    // T = 0 is GRED-NoCVT: no C-regulation iterations.
    auto sys = core::GredSystem::create(net, bench::gred_options(t));
    if (!sys.ok()) std::abort();
    const double bal =
        eval::measure_gred_balance(sys.value(), ids).report.max_over_avg;
    rows[k] = {std::to_string(t), Table::fmt(bal), Table::fmt(nocvt_bal),
               Table::fmt(chord_bal)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
