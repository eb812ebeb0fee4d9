// Fig. 7(a): routing stretch of GRED vs GRED-NoCVT on the 6-switch /
// 12-server P4 testbed prototype (Section VII-A). The paper reports
// both variants close to the optimal stretch of 1.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "topology/presets.hpp"

using namespace gred;

int main() {
  bench::print_header(
      "Fig. 7(a)", "testbed routing stretch (6 P4 switches, 12 servers)",
      "average stretch of GRED and GRED-NoCVT both close to 1");

  Table table({"requests", "GRED stretch (90% CI)",
               "GRED-NoCVT stretch (90% CI)"});

  const std::vector<std::size_t> request_counts = {100, 200, 500, 1000};
  std::vector<std::vector<std::string>> rows(request_counts.size());
  bench::parallel_trials(request_counts.size(), [&](std::size_t k) {
    const std::size_t requests = request_counts[k];
    auto gred_sys = core::GredSystem::create(
        topology::uniform_edge_network(topology::testbed6(), 2),
        bench::gred_options(50));
    auto nocvt_sys = core::GredSystem::create(
        topology::uniform_edge_network(topology::testbed6(), 2),
        bench::nocvt_options());
    if (!gred_sys.ok() || !nocvt_sys.ok()) {
      std::fprintf(stderr, "system creation failed\n");
      std::abort();
    }
    const eval::StretchOptions run{.items = requests, .seed = requests};
    const Summary gred =
        eval::measure_gred_stretch(gred_sys.value(), run).hop_stretch;
    const Summary nocvt =
        eval::measure_gred_stretch(nocvt_sys.value(), run).hop_stretch;
    if (gred.count != requests || nocvt.count != requests) {
      std::fprintf(stderr, "a placement failed\n");
      std::abort();
    }
    rows[k] = {std::to_string(requests), bench::mean_ci_cell(gred),
               bench::mean_ci_cell(nocvt)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
