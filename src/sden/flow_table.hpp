// The forwarding state a GRED switch holds — exactly what the control
// plane proactively installs (Section III "Control plane" / Section
// IV-C), and nothing else. Three match-action tables:
//
//   1. Greedy candidates: one entry per physical neighbor and per
//      multi-hop DT neighbor, carrying the neighbor's virtual position
//      (the P4 pipeline's per-neighbor distance stages) and the first
//      physical hop toward it.
//   2. Relay tuples <sour, pred, succ, dest>: forwarding along the
//      multi-hop path of a virtual link when this switch is an
//      intermediate node (Section IV-C's F_u).
//   3. Range-extension rewrites: data destined to an overloaded local
//      server is redirected to a delegate server on a neighbor switch
//      (Section V-B, Tables I/II).
//
// The size of this state — independent of flow count — is what
// Fig. 9(d) measures; `entry_count()` reports it.
//
// Storage is entry-vector + index: the vectors keep insertion order
// (the observable match semantics and the validators' view), while
// flat hash indexes make every match O(1) — relays keyed by dest and
// deduplicated by <sour, dest>, rewrites keyed by server, candidates
// keyed by neighbor. The routed fast path never reads these objects:
// it walks the compiled RoutePlan (route_plan.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "geometry/point.hpp"
#include "sden/packet.hpp"

namespace gred::sden {

/// A greedy-forwarding candidate: a physical or multi-hop DT neighbor.
struct NeighborEntry {
  SwitchId neighbor = kNoSwitch;       ///< candidate switch v (or v~)
  geometry::Point2D position;          ///< v's virtual coordinates
  bool physical = false;               ///< directly linked to this switch
  /// First physical hop toward `neighbor` (== neighbor when physical).
  SwitchId first_hop = kNoSwitch;
};

/// The paper's 4-tuple relay entry for multi-hop DT neighbor paths.
struct RelayEntry {
  SwitchId sour = kNoSwitch;
  SwitchId pred = kNoSwitch;
  SwitchId succ = kNoSwitch;
  SwitchId dest = kNoSwitch;
};

/// Range-extension rewrite: traffic for `original` (a local server) is
/// redirected toward `replacement` attached to `via_switch`.
struct RewriteEntry {
  ServerId original = topology::kNoServer;
  ServerId replacement = topology::kNoServer;
  SwitchId via_switch = kNoSwitch;
};

class FlowTable {
 public:
  void add_neighbor(const NeighborEntry& entry);
  void add_relay(const RelayEntry& entry);
  void add_rewrite(const RewriteEntry& entry);
  /// Removes the rewrite for `original` (server back to normal load —
  /// Section V-B's entry deletion). No-op when absent.
  void remove_rewrite(ServerId original);

  const std::vector<NeighborEntry>& neighbors() const { return neighbors_; }
  const std::vector<RelayEntry>& relays() const { return relays_; }
  const std::vector<RewriteEntry>& rewrites() const { return rewrites_; }

  /// Relay entry whose dest matches (the paper matches t.dest == d.dest).
  std::optional<RelayEntry> match_relay(SwitchId dest) const {
    const RelayEntry* e = find_relay(dest);
    if (e == nullptr) return std::nullopt;
    return *e;
  }

  /// Rewrite for a server, if installed.
  std::optional<RewriteEntry> match_rewrite(ServerId original) const {
    const RewriteEntry* e = find_rewrite(original);
    if (e == nullptr) return std::nullopt;
    return *e;
  }

  /// Allocation-free relay match: pointer into the entry vector (valid
  /// until the next table mutation), or nullptr. First-installed entry
  /// wins for a dest, exactly like the sequential scan it replaces.
  const RelayEntry* find_relay(SwitchId dest) const {
    const std::uint32_t* idx = relay_by_dest_.find(dest);
    return idx == nullptr ? nullptr : &relays_[*idx];
  }

  /// Allocation-free rewrite match (same lifetime rule as find_relay).
  const RewriteEntry* find_rewrite(ServerId original) const {
    const std::uint32_t* idx = rewrite_by_server_.find(original);
    return idx == nullptr ? nullptr : &rewrites_[*idx];
  }

  /// Total installed entries — the Fig. 9(d) metric.
  std::size_t entry_count() const {
    return neighbors_.size() + relays_.size() + rewrites_.size();
  }

  void clear();

  /// Multi-line human-readable dump (operator debugging; the moral
  /// equivalent of a P4 table read).
  std::string to_string() const;

 private:
  std::vector<NeighborEntry> neighbors_;
  std::vector<RelayEntry> relays_;
  std::vector<RewriteEntry> rewrites_;

  FlatMap<std::uint64_t, std::uint32_t> neighbor_index_;   ///< neighbor -> slot
  FlatMap<Key2, std::uint32_t> relay_by_pair_;             ///< <sour,dest> -> slot
  FlatMap<std::uint64_t, std::uint32_t> relay_by_dest_;    ///< dest -> first slot
  FlatMap<std::uint64_t, std::uint32_t> rewrite_by_server_;  ///< original -> slot
};

}  // namespace gred::sden
