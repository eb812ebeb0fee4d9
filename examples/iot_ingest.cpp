// IoT ingestion with heterogeneous edge servers: small servers overload
// under a hot-spot workload, the controller extends their management
// range to neighbor switches (Section V-B), and retrieval keeps finding
// everything.
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "topology/waxman.hpp"

using namespace gred;

int main() {
  std::printf("IoT ingestion with range extension\n");
  std::printf("==================================\n\n");

  // 12 switches; heterogeneous servers: 1-3 per switch, capacities
  // 20..200 items.
  Rng rng(7);
  topology::WaxmanOptions wopt;
  wopt.node_count = 12;
  wopt.min_degree = 2;
  auto topo = topology::generate_waxman(wopt, rng);
  if (!topo.ok()) return 1;
  topology::HeterogeneousOptions hopt;
  hopt.min_servers_per_switch = 1;
  hopt.max_servers_per_switch = 3;
  hopt.min_capacity = 20;
  hopt.max_capacity = 200;
  topology::EdgeNetwork net = topology::heterogeneous_edge_network(
      std::move(topo).value().graph, hopt, rng);

  auto built = core::GredSystem::create(net, {});
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.error().to_string().c_str());
    return 1;
  }
  core::GredSystem sys = std::move(built).value();
  std::printf("Network: %zu switches, %zu servers (capacities 20..200)\n\n",
              net.switch_count(), net.server_count());

  // Sensors stream readings; before each placement the gateway checks
  // whether the responsible server is nearly full and, if so, asks the
  // controller to extend its range (the paper's upper-layer trigger).
  std::size_t placed = 0, extensions = 0;
  std::vector<std::string> ids;
  for (int i = 0; i < 2500; ++i) {
    const std::string id = "sensor/" + std::to_string(i % 50) + "/reading-" +
                           std::to_string(i);
    const auto target = sys.controller().expected_placement(
        sys.network(), crypto::DataKey(id));
    if (!target.ok()) return 1;
    const auto& server = sys.network().server(target.value().server);
    if (server.remaining_capacity() <= 1 &&
        !sys.network()
             .const_switch_at(target.value().sw)
             .table()
             .match_rewrite(target.value().server)
             .has_value()) {
      if (sys.extend_range(target.value().server).ok()) {
        ++extensions;
        std::printf("  [controller] %s nearly full -> extended range to a "
                    "neighbor-switch server\n",
                    server.info().name.c_str());
      }
    }
    auto r = sys.place(id, "reading", rng.next_below(12));
    if (!r.ok()) {
      std::printf("  [drop] %s (%s)\n", id.c_str(),
                  r.error().message.c_str());
      continue;
    }
    ids.push_back(id);
    ++placed;
  }

  std::printf("\nIngested %zu readings with %zu range extensions.\n", placed,
              extensions);

  // Every reading is still retrievable — extension is transparent to
  // the data plane (retrievals query both candidate servers).
  std::size_t found = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto r = sys.retrieve(ids[i], rng.next_below(12));
    if (r.ok() && r.value().route.found) ++found;
  }
  std::printf("Retrieval check: %zu/%zu readings found.\n", found,
              ids.size());

  const auto report = core::load_balance(sys.network().server_loads());
  std::printf("Storage balance: max/avg = %.2f, Jain = %.2f\n",
              report.max_over_avg, report.jain);
  return found == ids.size() ? 0 : 1;
}
