#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "geometry/predicates.hpp"

namespace gred::check {
namespace {

using geometry::Point2D;

std::string point_str(const Point2D& p) { return p.to_string(); }

/// Brute-force nearest site under the paper's total order (squared
/// distance, then lexicographic position, then index).
std::size_t brute_force_nearest(const std::vector<Point2D>& sites,
                                const Point2D& p) {
  std::size_t best = geometry::kNoSite;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (best == geometry::kNoSite ||
        geometry::closer_to(p, sites[i], sites[best])) {
      best = i;
    }
  }
  return best;
}

/// Connected components of `g` by index, via a plain BFS over the
/// adjacency lists (independent of graph::bfs, which is itself under
/// test through the APSP checks).
std::vector<std::size_t> component_ids(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> comp(n, static_cast<std::size_t>(-1));
  std::size_t next_id = 0;
  std::vector<graph::NodeId> queue;
  for (graph::NodeId s = 0; s < n; ++s) {
    if (comp[s] != static_cast<std::size_t>(-1)) continue;
    comp[s] = next_id;
    queue.assign(1, s);
    while (!queue.empty()) {
      const graph::NodeId u = queue.back();
      queue.pop_back();
      for (const graph::EdgeTo& e : g.neighbors(u)) {
        if (comp[e.to] == static_cast<std::size_t>(-1)) {
          comp[e.to] = next_id;
          queue.push_back(e.to);
        }
      }
    }
    ++next_id;
  }
  return comp;
}

}  // namespace

void CheckReport::fail(std::string violation) {
  if (violations.size() < kMaxViolations) {
    violations.push_back(std::move(violation));
  } else {
    ++suppressed;
  }
}

std::string CheckReport::to_string() const {
  std::ostringstream os;
  os << subject << ": " << checked << " facts checked, "
     << violations.size() + suppressed << " violations";
  if (ok()) return os.str();
  os << ":";
  for (const std::string& v : violations) os << "\n  - " << v;
  if (suppressed > 0) os << "\n  - (+" << suppressed << " more)";
  return os.str();
}

CheckReport validate_delaunay(const geometry::DelaunayTriangulation& dt) {
  CheckReport report;
  report.subject = "validate_delaunay";
  const std::vector<Point2D>& pts = dt.points();
  const std::vector<geometry::Triangle>& tris = dt.triangles();
  const std::size_t n = pts.size();

  // Distinct sites (the build/insert APIs reject duplicates).
  {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return geometry::lex_less(pts[a], pts[b]);
    });
    for (std::size_t i = 1; i < n; ++i) {
      ++report.checked;
      if (pts[order[i]] == pts[order[i - 1]]) {
        report.fail("duplicate site " + point_str(pts[order[i]]));
      }
    }
  }

  // Adjacency structure: sorted, no self-loops, symmetric, in range.
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::size_t>& adj = dt.neighbors(i);
    for (std::size_t k = 0; k < adj.size(); ++k) {
      ++report.checked;
      const std::size_t j = adj[k];
      if (j >= n) {
        report.fail("adjacency of site " + std::to_string(i) +
                    " references out-of-range site " + std::to_string(j));
        continue;
      }
      if (j == i) {
        report.fail("site " + std::to_string(i) + " is its own neighbor");
      }
      if (k > 0 && adj[k - 1] >= j) {
        report.fail("adjacency of site " + std::to_string(i) +
                    " is not strictly ascending");
      }
      const std::vector<std::size_t>& back = dt.neighbors(j);
      if (!std::binary_search(back.begin(), back.end(), i)) {
        report.fail("asymmetric adjacency: " + std::to_string(i) + " -> " +
                    std::to_string(j) + " has no reverse edge");
      }
    }
  }

  // Triangle-level checks: orientation and the empty circumcircle.
  using Edge = std::pair<std::size_t, std::size_t>;
  auto canon = [](std::size_t a, std::size_t b) {
    return a < b ? Edge{a, b} : Edge{b, a};
  };
  std::map<Edge, std::size_t> incidence;
  for (const geometry::Triangle& t : tris) {
    ++report.checked;
    if (t.v[0] >= n || t.v[1] >= n || t.v[2] >= n) {
      report.fail("triangle references out-of-range site");
      continue;
    }
    if (t.v[0] == t.v[1] || t.v[1] == t.v[2] || t.v[0] == t.v[2]) {
      report.fail("triangle has repeated vertices");
      continue;
    }
    const Point2D& a = pts[t.v[0]];
    const Point2D& b = pts[t.v[1]];
    const Point2D& c = pts[t.v[2]];
    // orient2d (exact sign for double inputs: a proven double filter
    // with a __float128 fallback) rather than the naive signed_area2:
    // sliver triangles from near-collinear site sets have true areas
    // below double rounding noise.
    if (geometry::orient2d(a, b, c) !=
        geometry::Orientation::kCounterClockwise) {
      report.fail("triangle (" + std::to_string(t.v[0]) + ", " +
                  std::to_string(t.v[1]) + ", " + std::to_string(t.v[2]) +
                  ") is not counter-clockwise");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (t.has_vertex(i)) continue;
      ++report.checked;
      if (geometry::in_circumcircle(a, b, c, pts[i])) {
        report.fail("site " + std::to_string(i) +
                    " lies inside the circumcircle of triangle (" +
                    std::to_string(t.v[0]) + ", " + std::to_string(t.v[1]) +
                    ", " + std::to_string(t.v[2]) + ")");
      }
    }
    for (int e = 0; e < 3; ++e) {
      ++incidence[canon(t.v[e], t.v[(e + 1) % 3])];
    }
  }

  if (tris.empty()) {
    // Degenerate triangulation (< 3 sites or a collinear chain): the
    // documented structure is a path through the lex-sorted sites.
    if (n >= 2) {
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return geometry::lex_less(pts[a], pts[b]);
                });
      for (std::size_t i = 0; i + 1 < n; ++i) {
        ++report.checked;
        if (!dt.are_neighbors(order[i], order[i + 1])) {
          report.fail("collinear chain: consecutive sites " +
                      std::to_string(order[i]) + " and " +
                      std::to_string(order[i + 1]) + " are not neighbors");
        }
      }
      ++report.checked;
      if (dt.edge_count() != n - 1) {
        report.fail("collinear chain has " + std::to_string(dt.edge_count()) +
                    " edges, expected " + std::to_string(n - 1));
      }
    }
    return report;
  }

  // Triangle edges and adjacency must describe the same edge set.
  std::size_t adjacency_edges = dt.edge_count();
  ++report.checked;
  if (incidence.size() != adjacency_edges) {
    report.fail("triangle edge set (" + std::to_string(incidence.size()) +
                ") differs from adjacency edge count (" +
                std::to_string(adjacency_edges) + ")");
  }
  for (const auto& [edge, count] : incidence) {
    ++report.checked;
    if (!dt.are_neighbors(edge.first, edge.second)) {
      report.fail("triangle edge (" + std::to_string(edge.first) + ", " +
                  std::to_string(edge.second) + ") missing from adjacency");
    }
    if (count > 2) {
      report.fail("edge (" + std::to_string(edge.first) + ", " +
                  std::to_string(edge.second) + ") belongs to " +
                  std::to_string(count) + " triangles");
    }
  }

  // Hull closure: boundary edges (incidence 1) must form one closed
  // cycle that visits every hull vertex exactly once.
  std::map<std::size_t, std::vector<std::size_t>> hull_adj;
  std::size_t hull_edges = 0;
  for (const auto& [edge, count] : incidence) {
    if (count != 1) continue;
    ++hull_edges;
    hull_adj[edge.first].push_back(edge.second);
    hull_adj[edge.second].push_back(edge.first);
  }
  ++report.checked;
  if (hull_edges < 3) {
    report.fail("hull has only " + std::to_string(hull_edges) + " edges");
    return report;
  }
  for (const auto& [v, nbrs] : hull_adj) {
    ++report.checked;
    if (nbrs.size() != 2) {
      report.fail("hull vertex " + std::to_string(v) + " has " +
                  std::to_string(nbrs.size()) + " hull edges, expected 2");
    }
  }
  if (report.ok()) {
    // Walk the cycle; it must cover every hull edge.
    const std::size_t start = hull_adj.begin()->first;
    std::size_t prev = start;
    std::size_t cur = hull_adj[start][0];
    std::size_t steps = 1;
    while (cur != start && steps <= hull_edges) {
      const std::vector<std::size_t>& nbrs = hull_adj[cur];
      const std::size_t nxt = nbrs[0] == prev ? nbrs[1] : nbrs[0];
      prev = cur;
      cur = nxt;
      ++steps;
    }
    ++report.checked;
    if (cur != start || steps != hull_edges) {
      report.fail("hull edges do not form a single closed cycle (" +
                  std::to_string(steps) + " steps over " +
                  std::to_string(hull_edges) + " edges)");
    }
  }
  return report;
}

CheckReport validate_virtual_space(
    const std::vector<Point2D>& sites,
    const std::function<std::size_t(const Point2D&)>& nearest_index,
    std::size_t probes, std::uint64_t seed) {
  CheckReport report;
  report.subject = "validate_virtual_space";
  if (sites.empty()) return report;

  auto check_point = [&](const Point2D& p, const char* kind) {
    ++report.checked;
    const std::size_t expected = brute_force_nearest(sites, p);
    const std::size_t got = nearest_index(p);
    if (got != expected) {
      report.fail(std::string(kind) + " probe " + point_str(p) +
                  ": indexed nearest = " + std::to_string(got) +
                  ", brute force = " + std::to_string(expected));
    }
  };

  // Every site must map to itself (exact hits exercise the paper's
  // tie-break order on coincident distances).
  for (const Point2D& s : sites) check_point(s, "site");

  Rng rng(seed);
  for (std::size_t i = 0; i < probes; ++i) {
    // Mostly unit-square probes (the data-position domain), plus a
    // band outside it: queries anywhere in the plane must stay
    // correct because greedy targets are clamped positions.
    const bool outside = i % 8 == 7;
    const double lo = outside ? -0.5 : 0.0;
    const double hi = outside ? 1.5 : 1.0;
    check_point({rng.uniform(lo, hi), rng.uniform(lo, hi)}, "sampled");
  }
  return report;
}

CheckReport validate_graph(const graph::Graph& g) {
  CheckReport report;
  report.subject = "validate_graph";
  const std::size_t n = g.node_count();
  std::size_t degree_sum = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    std::set<graph::NodeId> seen;
    for (const graph::EdgeTo& e : g.neighbors(u)) {
      ++report.checked;
      ++degree_sum;
      if (e.to >= n) {
        report.fail("edge from " + std::to_string(u) +
                    " to out-of-range node " + std::to_string(e.to));
        continue;
      }
      if (e.to == u) {
        report.fail("self-loop at node " + std::to_string(u));
      }
      if (!seen.insert(e.to).second) {
        report.fail("parallel edge (" + std::to_string(u) + ", " +
                    std::to_string(e.to) + ")");
      }
      if (!(e.weight > 0.0)) {
        report.fail("non-positive weight on edge (" + std::to_string(u) +
                    ", " + std::to_string(e.to) + ")");
      }
      // Reverse edge with an identical weight.
      bool reverse = false;
      for (const graph::EdgeTo& r : g.neighbors(e.to)) {
        if (r.to == u && r.weight == e.weight) {
          reverse = true;
          break;
        }
      }
      if (!reverse) {
        report.fail("edge (" + std::to_string(u) + ", " +
                    std::to_string(e.to) +
                    ") has no symmetric reverse edge of equal weight");
      }
    }
  }
  ++report.checked;
  if (degree_sum != 2 * g.edge_count()) {
    report.fail("degree sum " + std::to_string(degree_sum) +
                " != 2 * edge_count " + std::to_string(g.edge_count()));
  }
  return report;
}

CheckReport validate_graph(const graph::Graph& g,
                           const graph::ApspResult& apsp, bool weighted) {
  CheckReport report = validate_graph(g);
  report.subject = "validate_graph+apsp";
  const std::size_t n = g.node_count();
  ++report.checked;
  if (apsp.dist.size() != n) {
    report.fail("APSP dimensions do not match the graph (" +
                std::to_string(apsp.dist.size()) + "x" +
                std::to_string(apsp.dist.size()) + " over " +
                std::to_string(n) + " nodes)");
    return report;
  }
  ++report.checked;
  if (apsp.weighted != weighted) {
    report.fail("APSP weighted flag does not match the validated mode");
    return report;
  }

  const std::vector<std::size_t> comp = component_ids(g);
  constexpr double kEps = 1e-9;
  for (graph::NodeId i = 0; i < n; ++i) {
    ++report.checked;
    if (apsp.dist(i, i) != 0.0) {
      report.fail("dist(" + std::to_string(i) + ", " + std::to_string(i) +
                  ") != 0");
    }
    for (graph::NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      ++report.checked;
      const double d = apsp.dist(i, j);
      const double dr = apsp.dist(j, i);
      // Weighted runs sum the same edge weights in opposite order for
      // the two directions, so allow float-summation noise; unweighted
      // hop counts (and unreachable markers) must agree exactly.
      const bool symmetric =
          (d == graph::kUnreachable || dr == graph::kUnreachable)
              ? d == dr
              : std::abs(d - dr) <=
                    (weighted ? kEps * (1.0 + std::abs(d)) : 0.0);
      if (!symmetric) {
        report.fail("asymmetric distance for (" + std::to_string(i) + ", " +
                    std::to_string(j) + ")");
      }
      const bool reachable = comp[i] == comp[j];
      if (reachable != (d != graph::kUnreachable)) {
        report.fail("dist(" + std::to_string(i) + ", " + std::to_string(j) +
                    ") disagrees with component structure");
        continue;
      }
      if (!weighted &&
          (apsp.hop_count(i, j) == graph::kNoPath) != !reachable) {
        report.fail("hop_count(" + std::to_string(i) + ", " +
                    std::to_string(j) +
                    ") kNoPath disagrees with component structure");
      }
      const graph::NodeId nxt = apsp.first_hop(i, j, g);
      if (!reachable) {
        if (nxt != graph::kNoNode) {
          report.fail("first_hop(" + std::to_string(i) + ", " +
                      std::to_string(j) + ") set on an unreachable pair");
        }
        continue;
      }
      if (nxt == graph::kNoNode || nxt >= n) {
        report.fail("first_hop(" + std::to_string(i) + ", " +
                    std::to_string(j) + ") missing on a reachable pair");
        continue;
      }
      // The derived first hop must be a real neighbor lying on a
      // shortest path: dist(i, j) = w(i, nxt) + dist(nxt, j).
      double step = graph::kUnreachable;
      for (const graph::EdgeTo& e : g.neighbors(i)) {
        if (e.to == nxt) {
          step = weighted ? e.weight : 1.0;
          break;
        }
      }
      if (step == graph::kUnreachable) {
        report.fail("first_hop(" + std::to_string(i) + ", " +
                    std::to_string(j) + ") = " + std::to_string(nxt) +
                    " is not a neighbor of " + std::to_string(i));
        continue;
      }
      if (std::abs(step + apsp.dist(nxt, j) - d) > kEps) {
        report.fail("first_hop(" + std::to_string(i) + ", " +
                    std::to_string(j) + ") does not lie on a shortest path");
      }
    }
  }
  return report;
}

CheckReport validate_flow_tables(
    const sden::SdenNetwork& net,
    const std::vector<topology::SwitchId>& participants,
    const std::vector<Point2D>& positions,
    const geometry::DelaunayTriangulation* dt, std::size_t probes,
    std::uint64_t seed) {
  CheckReport report;
  report.subject = "validate_flow_tables";
  if (participants.size() != positions.size()) {
    report.fail("participants/positions size mismatch");
    return report;
  }
  const graph::Graph& phys = net.description().switches();
  std::map<topology::SwitchId, std::size_t> index;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    index[participants[i]] = i;
  }

  for (std::size_t i = 0; i < participants.size(); ++i) {
    const topology::SwitchId s = participants[i];
    if (s >= net.switch_count()) {
      report.fail("participant " + std::to_string(s) +
                  " is not a switch of the network");
      continue;
    }
    const sden::Switch& sw = net.switch_at(s);
    ++report.checked;
    if (!sw.dt_participant()) {
      report.fail("participant switch " + std::to_string(s) +
                  " has no installed position");
      continue;
    }
    if (!(sw.position() == positions[i])) {
      report.fail("switch " + std::to_string(s) +
                  " position differs from the control plane's");
    }
    if (sw.local_servers() != net.description().servers_at(s)) {
      report.fail("switch " + std::to_string(s) +
                  " local server list differs from the topology's");
    }

    std::set<topology::SwitchId> entry_neighbors;
    for (const sden::NeighborEntry& e : sw.table().neighbors()) {
      ++report.checked;
      const auto it = index.find(e.neighbor);
      if (e.neighbor == s || it == index.end()) {
        report.fail("switch " + std::to_string(s) +
                    " has a greedy candidate that is not another "
                    "participant: " +
                    std::to_string(e.neighbor));
        continue;
      }
      if (!entry_neighbors.insert(e.neighbor).second) {
        report.fail("switch " + std::to_string(s) +
                    " lists candidate " + std::to_string(e.neighbor) +
                    " twice");
      }
      if (!(e.position == positions[it->second])) {
        report.fail("candidate " + std::to_string(e.neighbor) + " at switch " +
                    std::to_string(s) + " carries a stale position");
      }
      if (e.physical != phys.has_edge(s, e.neighbor)) {
        report.fail("candidate " + std::to_string(e.neighbor) + " at switch " +
                    std::to_string(s) + " has a wrong physical flag");
      }
      if (e.physical) {
        if (e.first_hop != e.neighbor) {
          report.fail("physical candidate " + std::to_string(e.neighbor) +
                      " at switch " + std::to_string(s) +
                      " has first_hop != neighbor");
        }
        continue;
      }
      // Multi-hop candidate: the relay chain from first_hop must walk
      // physical links to the virtual-link destination.
      if (!phys.has_edge(s, e.first_hop)) {
        report.fail("virtual link " + std::to_string(s) + " -> " +
                    std::to_string(e.neighbor) +
                    " starts with a non-physical first hop");
        continue;
      }
      topology::SwitchId cur = e.first_hop;
      std::size_t steps = 1;
      bool chain_ok = true;
      while (cur != e.neighbor) {
        if (++steps > net.switch_count()) {
          report.fail("relay chain " + std::to_string(s) + " -> " +
                      std::to_string(e.neighbor) + " does not terminate");
          chain_ok = false;
          break;
        }
        const auto relay = net.switch_at(cur).table().match_relay(e.neighbor);
        if (!relay.has_value()) {
          report.fail("relay chain " + std::to_string(s) + " -> " +
                      std::to_string(e.neighbor) +
                      " breaks at switch " + std::to_string(cur) +
                      " (no relay entry)");
          chain_ok = false;
          break;
        }
        if (!phys.has_edge(cur, relay->succ)) {
          report.fail("relay entry at switch " + std::to_string(cur) +
                      " forwards over a non-physical link to " +
                      std::to_string(relay->succ));
          chain_ok = false;
          break;
        }
        cur = relay->succ;
      }
      ++report.checked;
      if (chain_ok && steps < 2) {
        report.fail("virtual link " + std::to_string(s) + " -> " +
                    std::to_string(e.neighbor) +
                    " spans a single physical hop but is marked multi-hop");
      }
    }

    // On a valid DT the candidate set covers every DT neighbor.
    if (dt != nullptr && index.size() == dt->size()) {
      for (std::size_t j : dt->neighbors(i)) {
        ++report.checked;
        if (entry_neighbors.count(participants[j]) == 0) {
          report.fail("switch " + std::to_string(s) +
                      " is missing DT neighbor " +
                      std::to_string(participants[j]) +
                      " from its candidate table");
        }
      }
    }
  }

  // Relay entries must sit between physical neighbors even on pure
  // transit switches (greedy candidates never point at them, but the
  // chain walk above may pass through).
  for (topology::SwitchId w = 0; w < net.switch_count(); ++w) {
    for (const sden::RelayEntry& r : net.switch_at(w).table().relays()) {
      ++report.checked;
      if (!phys.has_edge(w, r.succ) || !phys.has_edge(w, r.pred)) {
        report.fail("relay tuple at switch " + std::to_string(w) +
                    " references non-physical pred/succ links");
      }
      if (index.find(r.dest) == index.end() ||
          index.find(r.sour) == index.end()) {
        report.fail("relay tuple at switch " + std::to_string(w) +
                    " references non-participant endpoints");
      }
    }
  }

  // Greedy-step invariant on sampled targets: the best candidate
  // either strictly improves on the switch's own position under the
  // paper's total order, or the switch is the local minimum — and a
  // local minimum must be the global nearest participant.
  Rng rng(seed);
  for (std::size_t k = 0; k < probes; ++k) {
    const Point2D target{rng.next_double(), rng.next_double()};
    const std::size_t global = brute_force_nearest(positions, target);
    for (std::size_t i = 0; i < participants.size(); ++i) {
      const sden::Switch& sw = net.switch_at(participants[i]);
      if (!sw.dt_participant()) continue;  // already reported above
      const sden::NeighborEntry* best = nullptr;
      for (const sden::NeighborEntry& cand : sw.table().neighbors()) {
        if (best == nullptr ||
            geometry::closer_to(target, cand.position, best->position)) {
          best = &cand;
        }
      }
      ++report.checked;
      const bool advances =
          best != nullptr &&
          geometry::closer_to(target, best->position, sw.position());
      if (advances) {
        // The total order guarantees strict progress; nothing more to
        // verify for this switch/target pair.
        continue;
      }
      if (i != global) {
        report.fail("switch " + std::to_string(participants[i]) +
                    " is a greedy local minimum for target " +
                    point_str(target) + " but switch " +
                    std::to_string(participants[global]) +
                    " is globally nearer");
      }
    }
  }
  return report;
}

CheckReport validate_placement(
    const sden::SdenNetwork& net,
    const std::function<std::vector<HomeServers>(const std::string& id)>&
        homes_of) {
  CheckReport report;
  report.subject = "validate_placement";
  std::set<std::string> seen;
  for (topology::ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      ++report.checked;
      const std::vector<HomeServers> homes = homes_of(id);
      if (homes.empty()) {
        report.fail("item " + id + " has no replica home");
        continue;
      }
      const bool in_place =
          std::any_of(homes.begin(), homes.end(), [s](const HomeServers& h) {
            return h.server == s || h.target == s;
          });
      if (!in_place) {
        report.fail("copy of " + id + " on server " + std::to_string(s) +
                    " is on no home's server or target");
      }
      if (!seen.insert(id).second) continue;
      for (std::size_t i = 0; i < homes.size(); ++i) {
        const HomeServers& h = homes[i];
        const auto holds = [&](topology::ServerId x) {
          return x < net.server_count() && net.server(x).contains(id);
        };
        if (!holds(h.server) && !holds(h.target)) {
          report.fail("home " + std::to_string(i) + " of " + id +
                      " (server " + std::to_string(h.server) + ", target " +
                      std::to_string(h.target) + ") holds no copy");
        }
      }
    }
  }
  return report;
}

}  // namespace gred::check
