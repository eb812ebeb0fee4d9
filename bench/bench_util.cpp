#include "bench_util.hpp"

#include <cstdio>

#include "common/thread_pool.hpp"

namespace gred::bench {

topology::EdgeNetwork make_waxman_network(std::size_t switches,
                                          std::size_t servers_per_switch,
                                          std::size_t min_degree,
                                          std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = min_degree;
  auto topo = topology::generate_waxman(opt, rng);
  if (!topo.ok()) {
    std::fprintf(stderr, "topology generation failed: %s\n",
                 topo.error().to_string().c_str());
    std::abort();
  }
  return topology::uniform_edge_network(std::move(topo).value().graph,
                                        servers_per_switch);
}

std::vector<std::string> make_ids(std::size_t count, std::uint64_t trial) {
  std::vector<std::string> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back("data-" + std::to_string(trial) + "-" + std::to_string(i));
  }
  return ids;
}

core::VirtualSpaceOptions gred_options(std::size_t cvt_iterations) {
  core::VirtualSpaceOptions opt;
  opt.cvt_iterations = cvt_iterations;
  opt.cvt_samples = 1000;  // the paper's sampling density
  return opt;
}

core::VirtualSpaceOptions nocvt_options() {
  core::VirtualSpaceOptions opt;
  opt.cvt_iterations = 0;
  return opt;
}

std::vector<double> gred_stretch_samples(core::GredSystem& sys,
                                         std::size_t items,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t switches = sys.network().switch_count();
  std::vector<double> samples;
  samples.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id = "stretch-" + std::to_string(seed) + "-" +
                           std::to_string(i);
    auto r = sys.place(id, "", rng.next_below(switches));
    if (!r.ok()) {
      std::fprintf(stderr, "placement failed: %s\n",
                   r.error().to_string().c_str());
      std::abort();
    }
    samples.push_back(r.value().stretch);
  }
  return samples;
}

std::vector<double> chord_stretch_samples(const chord::ChordRing& ring,
                                          const topology::EdgeNetwork& net,
                                          std::size_t items,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0xc402d);
  const auto apsp = graph::all_pairs_shortest_paths(net.switches());
  std::vector<double> samples;
  samples.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id = "stretch-" + std::to_string(seed) + "-" +
                           std::to_string(i);
    const topology::ServerId origin = rng.next_below(net.server_count());
    samples.push_back(
        chord::measure_lookup(ring, net, apsp, origin,
                              crypto::DataKey(id).prefix64())
            .stretch);
  }
  return samples;
}

std::vector<std::size_t> gred_loads(core::GredSystem& sys,
                                    const std::vector<std::string>& ids) {
  std::vector<std::size_t> loads(sys.network().server_count(), 0);
  for (const std::string& id : ids) {
    const auto placement = sys.controller().expected_placement(
        sys.network(), crypto::DataKey(id));
    if (placement.ok()) ++loads[placement.value().server];
  }
  return loads;
}

std::vector<std::size_t> chord_loads(const chord::ChordRing& ring,
                                     const topology::EdgeNetwork& net,
                                     const std::vector<std::string>& ids) {
  std::vector<chord::RingId> keys;
  keys.reserve(ids.size());
  for (const std::string& id : ids) {
    keys.push_back(crypto::DataKey(id).prefix64());
  }
  return chord::chord_key_loads(ring, net, keys);
}

void parallel_trials(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(0, count, 1,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) fn(i);
                             });
}

void write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6g%s\n", fields[i].first.c_str(),
                 fields[i].second, i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::string mean_ci_cell(const Summary& s, int precision) {
  return Table::fmt(s.mean, precision) + " +/- " +
         Table::fmt(s.ci90, precision);
}

void print_header(const std::string& fig, const std::string& what,
                  const std::string& paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig.c_str(), what.c_str());
  std::printf("Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("==============================================================\n");
}

}  // namespace gred::bench
