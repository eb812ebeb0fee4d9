// Shared harness pieces for the figure-reproduction benches: the
// substrate and GRED variant shortcuts, trial fan-out, and output
// helpers. The measurements themselves are gred::eval's (Section VII).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "chord/underlay.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "core/system.hpp"
#include "eval/experiments.hpp"
#include "eval/scenario.hpp"
#include "topology/edge_network.hpp"

namespace gred::bench {

/// eval::build_network, aborting on failure: the physical substrate
/// of a bench (defaults: the paper's 10 servers per switch, minimum
/// degree 3).
topology::EdgeNetwork network(const eval::ScenarioOptions& scenario);

/// GRED variant configuration shortcuts.
core::VirtualSpaceOptions gred_options(std::size_t cvt_iterations);
core::VirtualSpaceOptions nocvt_options();

/// Fans `count` independent trial bodies across the global thread pool
/// (GRED_THREADS). fn(i) must write its result into a per-trial slot;
/// the caller assembles output in trial order afterwards, so tables
/// print identically for any thread count.
void parallel_trials(std::size_t count,
                     const std::function<void(std::size_t)>& fn);

/// Writes a flat JSON object of numeric fields (the machine-readable
/// bench outputs, e.g. BENCH_control_plane.json).
void write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields);

/// "mean +/- ci" cell for the tables.
std::string mean_ci_cell(const Summary& s, int precision = 3);

/// Standard bench banner.
void print_header(const std::string& fig, const std::string& what,
                  const std::string& paper_expectation);

}  // namespace gred::bench
