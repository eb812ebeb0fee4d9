#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace gred::fault {
namespace {

/// Candidate draws per event before degrading to a weaker fault kind
/// (crash -> link down -> flaky). Bounds the search on topologies where
/// most switches are articulation points.
constexpr std::size_t kCandidateTries = 32;

/// True when every alive switch is reachable from the first alive one
/// over alive switches only — the invariant each permanent failure must
/// preserve so routing (from any surviving ingress) and the controller
/// repair both stay well-defined.
bool alive_connected(const graph::Graph& g,
                     const std::vector<std::uint8_t>& alive) {
  const std::size_t n = g.node_count();
  std::size_t start = n;
  std::size_t alive_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] != 0) {
      if (start == n) start = i;
      ++alive_count;
    }
  }
  if (alive_count <= 1) return alive_count == 1;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<graph::NodeId> stack{start};
  seen[start] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const graph::NodeId u = stack.back();
    stack.pop_back();
    for (const graph::EdgeTo& e : g.neighbors(u)) {
      if (alive[e.to] == 0 || seen[e.to] != 0) continue;
      seen[e.to] = 1;
      ++visited;
      stack.push_back(e.to);
    }
  }
  return visited == alive_count;
}

/// A live edge of the probe graph, uniform over edges, or nullopt when
/// none remain.
bool pick_edge(const graph::Graph& probe, Rng& rng, graph::NodeId& u,
               graph::NodeId& v) {
  const auto edges = probe.edges();
  if (edges.empty()) return false;
  const auto& e = edges[rng.next_below(edges.size())];
  u = e.first;
  v = e.second;
  return true;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSwitchCrash:
      return "switch-crash";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkFlaky:
      return "link-flaky";
    case FaultKind::kRegionKill:
      return "region-kill";
    case FaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

std::size_t FaultPlan::switch_crashes() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kSwitchCrash) ++n;
  }
  return n;
}

std::size_t FaultPlan::count(FaultKind kind) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

Result<FaultPlan> FaultPlan::generate(const topology::EdgeNetwork& net,
                                      const FaultPlanOptions& options) {
  if (options.schedule_length <= options.stale_window) {
    return Error(ErrorCode::kInvalidArgument,
                 "FaultPlan: schedule_length must exceed stale_window");
  }
  const double total_weight = options.crash_weight +
                              options.link_down_weight +
                              options.flaky_weight;
  if (options.crash_weight < 0.0 || options.link_down_weight < 0.0 ||
      options.flaky_weight < 0.0 || total_weight <= 0.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "FaultPlan: kind weights must be non-negative with a "
                 "positive sum");
  }
  if (options.flaky_drop_probability <= 0.0 ||
      options.flaky_drop_probability > 1.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "FaultPlan: flaky_drop_probability must be in (0, 1]");
  }
  const std::size_t n = net.switch_count();
  if (n < 2) {
    return Error(ErrorCode::kInvalidArgument,
                 "FaultPlan: need at least two switches");
  }

  FaultPlan plan;
  plan.options_ = options;
  if (options.event_count == 0) return plan;

  Rng rng(options.seed);

  // Failure times ascending; every repair then fits the timeline and
  // repairs apply in failure order (constant window).
  std::vector<std::size_t> times(options.event_count);
  const std::size_t horizon = options.schedule_length - options.stale_window;
  for (std::size_t& t : times) t = rng.next_below(horizon);
  std::sort(times.begin(), times.end());

  // Sequential probe: the topology after every permanent failure
  // planned so far. Candidates are validated against it, so the
  // controller repairs stay applicable when replayed in order.
  graph::Graph probe = net.switches();
  std::vector<std::uint8_t> alive(n, 1);

  for (const std::size_t at : times) {
    // Weighted kind draw; degraded below when no valid candidate
    // exists (flaky always has one while any edge is live).
    const double r = rng.next_double() * total_weight;
    FaultKind kind = FaultKind::kLinkFlaky;
    if (r < options.crash_weight) {
      kind = FaultKind::kSwitchCrash;
    } else if (r < options.crash_weight + options.link_down_weight) {
      kind = FaultKind::kLinkDown;
    }

    FaultEvent event;
    event.at_event = at;
    event.repair_at = at + options.stale_window;
    bool placed = false;

    if (kind == FaultKind::kSwitchCrash) {
      for (std::size_t attempt = 0; attempt < kCandidateTries && !placed;
           ++attempt) {
        const graph::NodeId s = rng.next_below(n);
        if (alive[s] == 0) continue;
        alive[s] = 0;
        if (alive_connected(probe, alive)) {
          probe.remove_edges_of(s);
          event.kind = FaultKind::kSwitchCrash;
          event.subject = s;
          placed = true;
        } else {
          alive[s] = 1;
        }
      }
      if (!placed) kind = FaultKind::kLinkDown;
    }

    if (kind == FaultKind::kLinkDown && !placed) {
      for (std::size_t attempt = 0; attempt < kCandidateTries && !placed;
           ++attempt) {
        graph::NodeId u = 0;
        graph::NodeId v = 0;
        if (!pick_edge(probe, rng, u, v)) break;
        const auto weight = probe.edge_weight(u, v);
        if (!weight.ok()) break;
        probe.remove_edge(u, v);
        if (alive_connected(probe, alive)) {
          event.kind = FaultKind::kLinkDown;
          event.subject = u;
          event.peer = v;
          placed = true;
        } else {
          (void)probe.add_edge(u, v, weight.value());
        }
      }
      if (!placed) kind = FaultKind::kLinkFlaky;
    }

    if (kind == FaultKind::kLinkFlaky && !placed) {
      graph::NodeId u = 0;
      graph::NodeId v = 0;
      if (pick_edge(probe, rng, u, v)) {
        event.kind = FaultKind::kLinkFlaky;
        event.subject = u;
        event.peer = v;
        event.drop_probability = options.flaky_drop_probability;
        placed = true;
      }
    }

    // No candidate of any kind (the probe ran out of edges): the
    // remaining timeline cannot host more failures.
    if (!placed) break;
    plan.events_.push_back(event);
  }
  return plan;
}

namespace {

/// Grid-cell label of `p` on a g x g partition of the unit square,
/// clamped at the borders (same formula as the hotspot workload's
/// region_of, so kill boxes line up with replication region labels).
std::size_t cell_of(const geometry::Point2D& p, std::size_t g) {
  const auto clamp_axis = [g](double v) {
    if (!(v > 0.0)) return std::size_t{0};  // also catches NaN
    const std::size_t cell =
        static_cast<std::size_t>(v * static_cast<double>(g));
    return cell >= g ? g - 1 : cell;
  };
  return clamp_axis(p.x) + g * clamp_axis(p.y);
}

}  // namespace

Result<FaultPlan> FaultPlan::generate_disasters(
    const topology::EdgeNetwork& net,
    const std::vector<topology::SwitchId>& participants,
    const std::vector<geometry::Point2D>& positions,
    const DisasterPlanOptions& options) {
  const std::size_t window =
      std::max(options.stale_window, options.partition_length);
  if (options.schedule_length <= window) {
    return Error(ErrorCode::kInvalidArgument,
                 "generate_disasters: schedule_length must exceed the "
                 "repair windows");
  }
  if (participants.size() != positions.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "generate_disasters: participants/positions size mismatch");
  }
  if (options.region_shape == RegionShape::kBox && options.box_grid == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "generate_disasters: box_grid must be >= 1");
  }
  const std::size_t n = net.switch_count();
  if (n < 2) {
    return Error(ErrorCode::kInvalidArgument,
                 "generate_disasters: need at least two switches");
  }
  for (const topology::SwitchId sw : participants) {
    if (sw >= n) {
      return Error(ErrorCode::kInvalidArgument,
                   "generate_disasters: participant out of range");
    }
  }

  FaultPlan plan;
  // Carry seed / windows in the base options so FaultSession derives
  // the same data-plane drop seed from a disaster plan.
  plan.options_.seed = options.seed;
  plan.options_.stale_window = options.stale_window;
  plan.options_.schedule_length = options.schedule_length;
  plan.options_.event_count = options.region_kills + options.partitions;
  if (plan.options_.event_count == 0) return plan;

  Rng rng(options.seed);

  std::vector<std::size_t> times(plan.options_.event_count);
  const std::size_t horizon = options.schedule_length - window;
  for (std::size_t& t : times) t = rng.next_below(horizon);
  std::sort(times.begin(), times.end());

  std::vector<FaultKind> kinds;
  kinds.reserve(plan.options_.event_count);
  kinds.insert(kinds.end(), options.region_kills, FaultKind::kRegionKill);
  kinds.insert(kinds.end(), options.partitions, FaultKind::kPartition);
  rng.shuffle(kinds);

  // Sequential probe as in generate(): region kills permanently remove
  // their members, so later disasters validate against the survivors.
  graph::Graph probe = net.switches();
  std::vector<std::uint8_t> alive(n, 1);

  // Keeps repair_at non-decreasing across the mixed stale/partition
  // windows, so FaultSession's in-order repair cursor never stalls a
  // due repair behind an earlier event with a longer window.
  std::size_t last_repair = 0;

  for (std::size_t ei = 0; ei < times.size(); ++ei) {
    const std::size_t at = times[ei];
    FaultEvent event;
    event.kind = kinds[ei];
    event.at_event = at;
    bool placed = false;

    if (kinds[ei] == FaultKind::kRegionKill) {
      for (std::size_t attempt = 0; attempt < kCandidateTries && !placed;
           ++attempt) {
        const std::size_t a = rng.next_below(participants.size());
        if (alive[participants[a]] == 0) continue;
        // Footprint: every alive positioned switch in the disc / box
        // anchored at participant `a`.
        std::vector<topology::SwitchId> members;
        for (std::size_t i = 0; i < participants.size(); ++i) {
          if (alive[participants[i]] == 0) continue;
          bool inside = false;
          if (options.region_shape == RegionShape::kDisc) {
            const double dx = positions[i].x - positions[a].x;
            const double dy = positions[i].y - positions[a].y;
            inside = dx * dx + dy * dy <=
                     kRegionKillRadius * kRegionKillRadius;
          } else {
            inside = cell_of(positions[i], options.box_grid) ==
                     cell_of(positions[a], options.box_grid);
          }
          if (inside) members.push_back(participants[i]);
        }
        std::size_t alive_total = 0;
        for (const std::uint8_t flag : alive) alive_total += flag;
        if (members.empty() || members.size() + 1 > alive_total) continue;
        for (const topology::SwitchId m : members) alive[m] = 0;
        if (!alive_connected(probe, alive)) {
          for (const topology::SwitchId m : members) alive[m] = 1;
          continue;
        }
        // The survivors stay connected with the whole region gone, so
        // a removal order whose every prefix is safe exists: any
        // member whose removal leaves a pure-member component can be
        // deferred behind that component's members. Greedy search,
        // re-validated step by step against the probe.
        for (const topology::SwitchId m : members) alive[m] = 1;
        std::vector<topology::SwitchId> order;
        std::vector<topology::SwitchId> remaining = members;
        std::sort(remaining.begin(), remaining.end());
        bool stuck = false;
        while (!remaining.empty() && !stuck) {
          stuck = true;
          for (std::size_t i = 0; i < remaining.size(); ++i) {
            const topology::SwitchId m = remaining[i];
            alive[m] = 0;
            if (alive_connected(probe, alive)) {
              order.push_back(m);
              remaining.erase(remaining.begin() +
                              static_cast<std::ptrdiff_t>(i));
              stuck = false;
              break;
            }
            alive[m] = 1;
          }
        }
        if (stuck) {
          for (const topology::SwitchId m : order) alive[m] = 1;
          continue;
        }
        for (const topology::SwitchId m : order) probe.remove_edges_of(m);
        event.members = std::move(order);
        event.center = positions[a];
        event.radius = options.region_shape == RegionShape::kDisc
                           ? kRegionKillRadius
                           : 0.0;
        event.repair_at = at + options.stale_window;
        placed = true;
      }
    } else {
      for (std::size_t attempt = 0; attempt < kCandidateTries && !placed;
           ++attempt) {
        const std::size_t a = rng.next_below(participants.size());
        if (alive[participants[a]] == 0) continue;
        const geometry::Point2D c = positions[a];
        const double theta = rng.next_double() * 3.14159265358979323846;
        const geometry::Point2D nrm{std::cos(theta), std::sin(theta)};
        // Side of the cut line through `c` with normal `nrm`; links
        // whose positioned endpoints straddle it are severed.
        const auto side = [&](std::size_t idx) {
          const double d = (positions[idx].x - c.x) * nrm.x +
                           (positions[idx].y - c.y) * nrm.y;
          return d >= 0.0;
        };
        std::vector<std::size_t> index_of(n, participants.size());
        for (std::size_t i = 0; i < participants.size(); ++i) {
          index_of[participants[i]] = i;
        }
        std::vector<std::pair<topology::SwitchId, topology::SwitchId>> cut;
        for (const auto& [u, v] : probe.edges()) {
          if (alive[u] == 0 || alive[v] == 0) continue;
          const std::size_t iu = index_of[u];
          const std::size_t iv = index_of[v];
          if (iu == participants.size() || iv == participants.size()) {
            continue;  // unpositioned transit: the cut can't see it
          }
          if (side(iu) != side(iv)) cut.emplace_back(u, v);
        }
        if (cut.empty()) continue;
        event.cut_links = std::move(cut);
        event.center = c;
        event.normal = nrm;
        event.repair_at = at + options.partition_length;
        placed = true;
      }
    }

    // A disaster without a valid footprint is skipped, not fatal:
    // later scheduled disasters may still fit the surviving topology.
    if (!placed) continue;
    event.repair_at = std::max(event.repair_at, last_repair);
    last_repair = event.repair_at;
    plan.events_.push_back(event);
  }
  return plan;
}

}  // namespace gred::fault
