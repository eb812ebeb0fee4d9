// Fig. 7(b): load balance (max/avg) of GRED vs GRED-NoCVT on the
// 6-switch testbed. The paper reports GRED significantly better than
// GRED-NoCVT thanks to the C-regulation refinement.
#include <cstdio>

#include "bench_util.hpp"
#include "topology/presets.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 7(b)", "testbed load balance max/avg (6 switches, 12 servers)",
      "GRED clearly below GRED-NoCVT; optimum is 1");

  auto gred_sys = core::GredSystem::create(
      topology::uniform_edge_network(topology::testbed6(), 2),
      bench::gred_options(50));
  auto nocvt_sys = core::GredSystem::create(
      topology::uniform_edge_network(topology::testbed6(), 2),
      bench::nocvt_options());
  if (!gred_sys.ok() || !nocvt_sys.ok()) return 1;

  Table table({"data items", "GRED max/avg", "GRED-NoCVT max/avg"});
  // Rows share the two systems, but gred_loads only reads the
  // controller's placement function — safe to fan out.
  const std::vector<std::size_t> item_counts = {1000, 5000, 10000, 50000};
  std::vector<std::vector<std::string>> rows(item_counts.size());
  bench::parallel_trials(item_counts.size(), [&](std::size_t k) {
    const std::size_t items = item_counts[k];
    const auto ids = eval::workload_ids(items, 7);
    const double g =
        eval::measure_gred_balance(gred_sys.value(), ids).report.max_over_avg;
    const double n =
        eval::measure_gred_balance(nocvt_sys.value(), ids).report.max_over_avg;
    rows[k] = {std::to_string(items), Table::fmt(g), Table::fmt(n)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
