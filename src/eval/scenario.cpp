#include "eval/scenario.hpp"

#include "common/rng.hpp"
#include "topology/waxman.hpp"

namespace gred::eval {

Result<topology::EdgeNetwork> build_network(const ScenarioOptions& options) {
  Rng rng(options.topology_seed);
  topology::WaxmanOptions wopt;
  wopt.node_count = options.switches;
  wopt.min_degree = options.min_degree;
  wopt.latency_weights = options.latency_weights;
  auto topo = topology::generate_waxman(wopt, rng);
  if (!topo.ok()) return topo.error();
  return topology::uniform_edge_network(std::move(topo).value().graph,
                                        options.servers_per_switch);
}

Result<core::GredSystem> build_gred(const topology::EdgeNetwork& net,
                                    const ScenarioOptions& options) {
  core::VirtualSpaceOptions vs;
  vs.cvt_iterations = options.cvt_iterations;
  vs.cvt_samples = 1000;  // the paper's sampling density
  return core::GredSystem::create(net, vs);
}

Result<core::GredSystem> build_gred_nocvt(const topology::EdgeNetwork& net,
                                          const ScenarioOptions& options) {
  (void)options;
  core::VirtualSpaceOptions vs;
  vs.cvt_iterations = 0;
  return core::GredSystem::create(net, vs);
}

Result<chord::ChordRing> build_chord(const topology::EdgeNetwork& net) {
  return chord::ChordRing::build(net);
}

}  // namespace gred::eval
