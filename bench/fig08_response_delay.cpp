// Fig. 8: average response delay of retrieval requests on the testbed.
// The paper's testbed measures wall-clock round trips; our substitute
// replays the same retrievals through core::RetrievalDelayExperiment —
// per-link latency, per-request service time, FIFO queueing at servers.
// Expectation: delay is low and changes only modestly with the number
// of concurrent retrieval requests, and the two GRED variants are
// similar.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "core/delay_experiment.hpp"
#include "topology/presets.hpp"

using namespace gred;

namespace {

double mean_delay(core::GredSystem& sys, std::size_t requests,
                  std::uint64_t seed) {
  // Preload 200 items.
  std::vector<std::string> ids = eval::workload_ids(200, seed);
  for (const auto& id : ids) {
    if (!sys.place(id, "payload", 0).ok()) std::abort();
  }
  core::DelayModelOptions model;  // 0.05 ms/hop, 0.20 ms service
  core::RetrievalDelayExperiment experiment(sys, model);
  Rng rng(seed * 31 + 7);
  auto result =
      experiment.run_uniform(ids, requests, /*spacing_ms=*/0.02, rng);
  if (!result.ok() || result.value().not_found > 0) std::abort();
  return result.value().delay.mean;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 8", "average response delay of retrievals on the testbed (ms)",
      "low delay; modest change as the number of requests grows; both "
      "GRED variants similar");

  Table table({"retrieval requests", "GRED avg delay (ms)",
               "GRED-NoCVT avg delay (ms)"});
  // mean_delay preloads data into the system, so each row gets its own
  // pair of systems and the rows fan out independently.
  const std::vector<std::size_t> request_counts = {100, 250, 500, 750, 1000};
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
    const double g = mean_delay(gred_sys.value(), requests, requests);
    const double n = mean_delay(nocvt_sys.value(), requests, requests);
    rows[k] = {std::to_string(requests), Table::fmt(g), Table::fmt(n)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
