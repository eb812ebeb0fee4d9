// Deep structural validators for the GRED control and data planes.
//
// Each validator walks one subsystem and returns a CheckReport listing
// every violated fact (not just the first), so a failing run reads
// like a diagnosis instead of a stack trace. They are deliberately
// written against the public read APIs — brute force, no shortcuts
// shared with the code under test — because a validator that reuses
// the optimized path would inherit its bugs.
//
// Validators run in three places:
//   * the controller's rebuild paths (Debug / GRED_CHECKED builds),
//   * the tier-1 unit tests (tests/check_test.cpp and friends),
//   * every fuzz harness under fuzz/ (each input that parses must
//     still satisfy the matching invariant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "sden/network.hpp"

namespace gred::check {

/// Outcome of one deep validation pass. `checked` counts the facts
/// examined (so tests can assert the validator actually did work);
/// `violations` holds a human-readable line per violated fact, capped
/// at kMaxViolations to keep pathological inputs readable.
struct CheckReport {
  static constexpr std::size_t kMaxViolations = 32;

  std::string subject;
  std::vector<std::string> violations;
  std::size_t checked = 0;
  /// Violations found beyond the stored cap.
  std::size_t suppressed = 0;

  bool ok() const { return violations.empty() && suppressed == 0; }
  void fail(std::string violation);
  /// "<subject>: N facts checked, M violations:\n  - ..." (one line
  /// per stored violation).
  std::string to_string() const;
};

/// Empty-circumcircle property via the exact predicates, CCW
/// orientation, adjacency symmetry/sortedness, triangle-adjacency
/// agreement, and hull closure (boundary edges form one closed
/// cycle). Degenerate triangulations (< 3 sites or collinear chains)
/// are validated against their documented chain structure.
CheckReport validate_delaunay(const geometry::DelaunayTriangulation& dt);

/// Agreement between an indexed nearest-site answer (`nearest_index`,
/// e.g. a SiteGrid or VirtualSpace lookup) and the brute-force scan
/// over `sites` under the paper's total order, on the sites
/// themselves plus `probes` deterministic sample points.
CheckReport validate_virtual_space(
    const std::vector<geometry::Point2D>& sites,
    const std::function<std::size_t(const geometry::Point2D&)>& nearest_index,
    std::size_t probes = 256, std::uint64_t seed = 0x47524543u);

/// Undirected symmetry (u~v implies v~u with the same weight), no
/// self-loops or parallel edges, positive weights, and edge-count
/// bookkeeping.
CheckReport validate_graph(const graph::Graph& g);

/// Everything validate_graph checks, plus APSP consistency: zero
/// diagonal, symmetric distances, kUnreachable/kNoPath exactly on
/// cross-component pairs, and every stored next-hop being a real
/// neighbor that lies on a shortest path. `weighted` names the metric
/// the APSP was computed under (link weights vs. unit hops).
CheckReport validate_graph(const graph::Graph& g,
                           const graph::ApspResult& apsp, bool weighted);

/// Installed forwarding state of every switch in `net` against the
/// control plane's ground truth (`participants` + `positions`, and
/// the DT when given): positions and server lists match, greedy
/// candidate entries carry true positions and reachable first hops,
/// relay chains walk physical links to their vlink destination, and —
/// on `probes` sampled targets — the greedy next-hop strictly
/// decreases the distance to the target or the switch is the local
/// (= global, on a valid DT) minimum.
CheckReport validate_flow_tables(
    const sden::SdenNetwork& net,
    const std::vector<topology::SwitchId>& participants,
    const std::vector<geometry::Point2D>& positions,
    const geometry::DelaunayTriangulation* dt = nullptr,
    std::size_t probes = 64, std::uint64_t seed = 0x47524544u);

/// One replica home of an item as the data plane serves it: a store
/// writes `target`, a retrieval queries `server` and `target`.
struct HomeServers {
  topology::ServerId server = topology::kNoServer;
  topology::ServerId target = topology::kNoServer;
};

/// Every stored copy in `net` against `homes_of(id)`, the item's
/// replica homes: each copy sits on some home's server or target, and
/// each home of each stored item holds a copy on one of the two. (Not
/// exactly one copy per home: an overwrite made during a range
/// extension leaves copies on both, and reads query both.)
CheckReport validate_placement(
    const sden::SdenNetwork& net,
    const std::function<std::vector<HomeServers>(const std::string& id)>&
        homes_of);

}  // namespace gred::check

#if GRED_CHECKS_ENABLED
#define GRED_CHECK(report_expr)                                       \
  do {                                                                \
    const ::gred::check::CheckReport gred_check_report_ =             \
        (report_expr);                                                \
    if (!gred_check_report_.ok()) {                                   \
      ::gred::check::invariant_failure(__FILE__, __LINE__,            \
                                       #report_expr,                  \
                                       gred_check_report_.to_string()); \
    }                                                                 \
  } while (0)
#else
#define GRED_CHECK(report_expr) ((void)0)
#endif
