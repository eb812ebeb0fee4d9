// gred::fault — deterministic failure injection for the fault-tolerance
// layer. A FaultPlan is a seeded, pre-validated schedule of failures
// (switch crash, link down, flaky link) on an event-index timeline.
// Each failure carries a repair time `stale_window` events later: the
// window models the delay between the physical fault and the
// controller's recompute, during which the data plane routes on stale
// tables and packets fall into the hole (classified kLinkDown).
//
// Generation is validated against a sequential probe of the topology:
// crash and link-down candidates are accepted only when the surviving
// switches stay connected after every previously planned permanent
// failure, so the matching controller repairs (remove_switch /
// remove_link) are guaranteed applicable in repair order. Link events
// draw from the probe's live edges, so no event touches an
// already-crashed switch. The plan is a pure function of
// (topology, options) — same seed, same plan.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geometry/point.hpp"
#include "topology/edge_network.hpp"

namespace gred::fault {

enum class FaultKind : std::uint8_t {
  kSwitchCrash,  ///< switch dies; its stored items are lost
  kLinkDown,     ///< permanent link failure (repaired by remove_link)
  kLinkFlaky,    ///< transient loss: link drops packets with probability p
  kRegionKill,   ///< correlated disaster: every switch in a region of the
                 ///< virtual space crashes in the same timeline step
  kPartition,    ///< correlated disaster: every link crossing a sampled
                 ///< cut line goes down, restored together later
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kSwitchCrash;
  /// Event-clock index at which the fault appears in the data plane.
  std::size_t at_event = 0;
  /// Crashed switch, or link endpoint u.
  topology::SwitchId subject = 0;
  /// Link endpoint v (link events only).
  topology::SwitchId peer = 0;
  /// Per-packet drop probability while injected (1.0 = hard down).
  double drop_probability = 1.0;
  /// Event-clock index of the controller recompute
  /// (= at_event + stale_window).
  std::size_t repair_at = 0;

  // --- correlated disasters only ---
  /// kRegionKill: the switches dying together, pre-ordered so that
  /// removing them one by one keeps the survivors connected after
  /// every prefix (the repair replays exactly this order).
  std::vector<topology::SwitchId> members;
  /// kPartition: the links crossing the sampled cut, as drawn from the
  /// probe topology at generation time.
  std::vector<std::pair<topology::SwitchId, topology::SwitchId>> cut_links;
  /// Disaster geometry (diagnostics): disc/box anchor for a region
  /// kill; a point on the cut line for a partition.
  geometry::Point2D center{};
  /// Disc radius of a kRegionKill (0 for box kills).
  double radius = 0.0;
  /// Unit normal of a kPartition cut line.
  geometry::Point2D normal{};
};

struct FaultPlanOptions {
  std::size_t event_count = 8;
  /// Length of the event-clock timeline; failures are drawn from
  /// [0, schedule_length - stale_window) so every repair fits.
  std::size_t schedule_length = 1000;
  /// Relative frequencies of the three fault kinds.
  double crash_weight = 1.0;
  double link_down_weight = 1.0;
  double flaky_weight = 1.0;
  /// Drop probability of a kLinkFlaky event.
  double flaky_drop_probability = 0.3;
  /// Events between a failure and its controller recompute (the
  /// stale-position window of the fault model).
  std::size_t stale_window = 4;
  std::uint64_t seed = 1;
};

/// Footprint of a region-kill disaster in the virtual space.
enum class RegionShape : std::uint8_t {
  kDisc,  ///< all switches within kRegionKillRadius of a sampled anchor
  kBox,   ///< all switches in the anchor's cell of a GxG grid
};

/// kDisc: kill radius in virtual-space units ([0,1]^2 space).
inline constexpr double kRegionKillRadius = 0.15;

/// Options of FaultPlan::generate_disasters — a schedule of correlated
/// events (region kills and partitions) instead of independent point
/// faults. Disasters are drawn against the *virtual-space positions*
/// of the participants, so a kill footprint matches the region labels
/// replica placement diversifies over.
struct DisasterPlanOptions {
  std::size_t region_kills = 1;
  std::size_t partitions = 0;
  RegionShape region_shape = RegionShape::kDisc;
  /// kBox: grid dimension; the kill wipes one whole G x G cell. Align
  /// with ReplicationOptions::region_grid to model "a labelled region
  /// dies" exactly.
  std::size_t box_grid = 4;
  std::size_t schedule_length = 1000;
  /// Events between a region kill and its controller recompute.
  std::size_t stale_window = 4;
  /// Events a partition stays up before the cut heals (partitions are
  /// restored, not repaired by topology surgery).
  std::size_t partition_length = 8;
  std::uint64_t seed = 1;
};

class FaultPlan {
 public:
  /// Builds a schedule against `net`'s switch topology. Fails on a
  /// degenerate request (empty timeline, non-positive weights, fewer
  /// than two switches).
  static Result<FaultPlan> generate(const topology::EdgeNetwork& net,
                                    const FaultPlanOptions& options = {});

  /// Builds a correlated-disaster schedule. `participants` /
  /// `positions` are the controller's virtual-space embedding (parallel
  /// vectors); links between switches without a position are never cut
  /// and unpositioned switches never die in a region kill. Same
  /// applicability guarantee as generate(): every region kill keeps
  /// the survivors connected (validated against a sequential probe,
  /// with a per-member removal order every prefix of which stays
  /// connected), so the repair-time remove_switch calls always apply.
  /// Partitions may disconnect the network — that is their point — but
  /// they heal without a topology change. A disaster that finds no
  /// valid footprint after bounded tries is skipped, so the plan can
  /// carry fewer events than requested.
  static Result<FaultPlan> generate_disasters(
      const topology::EdgeNetwork& net,
      const std::vector<topology::SwitchId>& participants,
      const std::vector<geometry::Point2D>& positions,
      const DisasterPlanOptions& options = {});

  /// Events ascending by at_event; repair_at is non-decreasing too
  /// (constant window for point faults; disaster generation clamps),
  /// so repairs apply in the same order.
  const std::vector<FaultEvent>& events() const { return events_; }
  const FaultPlanOptions& options() const { return options_; }

  std::size_t switch_crashes() const;
  /// Events of a given kind in the plan.
  std::size_t count(FaultKind kind) const;

 private:
  std::vector<FaultEvent> events_;
  FaultPlanOptions options_;
};

}  // namespace gred::fault
