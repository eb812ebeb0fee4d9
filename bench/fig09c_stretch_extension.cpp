// Fig. 9(c): routing stretch of GRED vs extended-GRED vs Chord across
// network sizes (Section VII-C3). Extended-GRED places every item in a
// server on a neighbor switch of its destination switch (the range
// extension actually active for the item's home server), adding one
// handoff hop. Expectation: extended-GRED slightly above GRED, both
// far below Chord.
#include <cstdio>

#include "bench_util.hpp"

using namespace gred;

namespace {

/// Stretch samples with the range extension active for every item's
/// home server: before placing an item, the controller extends the
/// management range of the server that would receive it, so the data
/// lands on the delegate at a neighbor switch — the paper's
/// "extended-GRED".
std::vector<double> extended_gred_samples(core::GredSystem& sys,
                                          std::size_t items,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0xe47);
  std::vector<double> samples;
  samples.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const std::string id =
        "ext-" + std::to_string(seed) + "-" + std::to_string(i);
    const auto placement = sys.controller().expected_placement(
        sys.network(), crypto::DataKey(id));
    if (!placement.ok()) std::abort();
    const topology::ServerId owner = placement.value().server;
    if (!sys.extend_range(owner).ok()) std::abort();
    auto r = sys.place(id, "", rng.next_below(sys.network().switch_count()));
    if (!r.ok()) std::abort();
    samples.push_back(r.value().stretch);
    // Remove the rewrite directly (retract would migrate data back).
    sys.network()
        .switch_at(placement.value().sw)
        .table()
        .remove_rewrite(owner);
  }
  return samples;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 9(c)", "routing stretch with range extension vs network size",
      "extended-GRED slightly above GRED, both far below Chord");

  Table table({"switches", "Chord", "GRED", "extended-GRED"});
  const std::vector<std::size_t> sizes = {20, 50, 100, 150, 200};
  std::vector<std::vector<std::string>> rows(sizes.size());
  bench::parallel_trials(sizes.size(), [&](std::size_t k) {
    const std::size_t n = sizes[k];
    const topology::EdgeNetwork net =
        bench::network({.switches = n, .topology_seed = 3000 + n});

    auto gred_sys = core::GredSystem::create(net, bench::gred_options(50));
    auto ext_sys = core::GredSystem::create(net, bench::gred_options(50));
    auto ring = chord::ChordRing::build(net);
    if (!gred_sys.ok() || !ext_sys.ok() || !ring.ok()) std::abort();

    const Summary chord_s =
        eval::measure_chord_stretch(
            ring.value(), net, graph::all_pairs_shortest_paths(net.switches()),
            {.items = 100, .seed = n})
            .hop_stretch;
    const Summary gred_s =
        eval::measure_gred_stretch(gred_sys.value(), {.items = 100, .seed = n})
            .hop_stretch;
    if (gred_s.count != 100) std::abort();
    const Summary ext_s =
        summarize(extended_gred_samples(ext_sys.value(), 100, n));

    rows[k] = {std::to_string(n), bench::mean_ci_cell(chord_s),
               bench::mean_ci_cell(gred_s), bench::mean_ci_cell(ext_s)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
