// Multi-hop Delaunay triangulation (Section IV-C, after Lam & Qian's
// MDT): the DT of the switch virtual positions, where DT edges between
// switches that are not physically adjacent are realized as physical
// shortest paths. The structure computed here is exactly what the
// controller installs: greedy candidate entries (with the first
// physical hop of each virtual link) and the <sour, pred, succ, dest>
// relay tuples at intermediate switches.
//
// Besides the one-shot build() the structure supports incremental
// maintenance: participants can join/leave via localized Delaunay
// repair, and individual participants' candidate/relay state can be
// re-derived after a graph change. Relay vectors are kept in the
// (sour, dest)-lexicographic order a fresh build produces (ascending
// participant loop x ascending DT-neighbor loop), so a chain of
// incremental updates yields bit-identical installable state.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geometry/delaunay.hpp"
#include "graph/shortest_path.hpp"
#include "sden/flow_table.hpp"
#include "topology/edge_network.hpp"

namespace gred::core {

/// A greedy candidate of one switch, ready to install.
struct DtNeighborInfo {
  topology::SwitchId neighbor = 0;
  geometry::Point2D position;
  bool physical = false;
  topology::SwitchId first_hop = 0;
  /// Physical hops to reach the neighbor (1 when physical).
  std::size_t path_length = 1;
};

class MultiHopDT {
 public:
  /// An empty structure; fill via build().
  MultiHopDT() = default;

  /// Builds the DT over (participants, positions) and resolves every
  /// non-physical DT edge to the physical shortest path from `apsp`.
  /// `physical` is the full switch graph (relays may pass through
  /// non-participant transit switches). Fails when positions collide or
  /// some DT edge cannot be realized (disconnected participants).
  static Result<MultiHopDT> build(
      const std::vector<topology::SwitchId>& participants,
      const std::vector<geometry::Point2D>& positions,
      const graph::Graph& physical, const graph::ApspResult& apsp);

  /// Greedy candidates per participant (indexed as participants()).
  const std::vector<DtNeighborInfo>& candidates_of(
      topology::SwitchId sw) const;

  /// Relay tuples to install, keyed by the switch that stores them.
  const std::map<topology::SwitchId, std::vector<sden::RelayEntry>>&
  relay_entries() const {
    return relays_;
  }

  const geometry::DelaunayTriangulation& triangulation() const { return dt_; }
  const std::vector<topology::SwitchId>& participants() const {
    return participants_;
  }

  /// Mean physical path length of the virtual (multi-hop) DT edges —
  /// diagnostics for the embedding quality.
  double mean_vlink_length() const;

  // ----- incremental maintenance ------------------------------------

  /// Joins `sw` at `position` via Delaunay insertion (a local cavity
  /// re-triangulation, or a rebuild of a degenerate triangulation) and
  /// rebuilds the candidates/relays of every participant the insertion
  /// reports as affected. `affected` receives the post-insert indices
  /// of those participants (the new one included);
  /// `touched_switches` (optional) accumulates every switch whose
  /// installable state changed — rebuilt participants plus old and new
  /// virtual-link intermediates. The graph must already contain the
  /// new switch's links and `apsp` must already be updated.
  Status add_participant(topology::SwitchId sw,
                         const geometry::Point2D& position,
                         const graph::Graph& physical,
                         const graph::ApspResult& apsp,
                         std::vector<std::size_t>* affected,
                         std::vector<topology::SwitchId>* touched_switches);

  /// Removes `sw` via Delaunay removal (local for an interior site; a
  /// hull site or a degenerate or tiny triangulation is rebuilt, and
  /// every participant then counts as affected) and rebuilds the
  /// affected participants. `affected` receives their post-removal
  /// indices.
  Status remove_participant(topology::SwitchId sw,
                            const graph::Graph& physical,
                            const graph::ApspResult& apsp,
                            std::vector<std::size_t>* affected,
                            std::vector<topology::SwitchId>* touched_switches);

  /// Re-derives candidates_[i] plus the relays and cached paths of the
  /// virtual links sourced at participants()[i], exactly as build()
  /// would produce them. Used after a graph change invalidated the
  /// participant's shortest paths (DT adjacency unchanged).
  Status rebuild_participant(std::size_t i, const graph::Graph& physical,
                             const graph::ApspResult& apsp,
                             std::vector<topology::SwitchId>* touched_switches);

  /// Participants whose cached virtual-link paths traverse any switch
  /// in `nodes`. After those switches' adjacency changed, the canonical
  /// paths of exactly these participants' virtual links may differ even
  /// when their distance rows did not move.
  std::vector<std::size_t> participants_with_vlinks_through(
      const std::vector<topology::SwitchId>& nodes) const;

 private:
  /// Fills candidates_[i] (cleared first) and registers the relays +
  /// cached paths of i's multi-hop DT edges. Relay vectors are kept
  /// sorted by (sour, dest); `touched_switches` gets the new
  /// intermediates when given.
  Status build_candidates_for(std::size_t i, const graph::Graph& physical,
                              const graph::ApspResult& apsp,
                              std::vector<topology::SwitchId>* touched);

  /// Drops every relay + cached path sourced at `u`; old intermediates
  /// go to `touched` when given.
  void drop_vlinks_of(topology::SwitchId u,
                      std::vector<topology::SwitchId>* touched);

  std::vector<topology::SwitchId> participants_;
  geometry::DelaunayTriangulation dt_;
  /// candidates_[i] belongs to participants_[i].
  std::vector<std::vector<DtNeighborInfo>> candidates_;
  std::map<topology::SwitchId, std::vector<sden::RelayEntry>> relays_;
  std::map<topology::SwitchId, std::size_t> index_;
  /// Physical path of every multi-hop DT edge, keyed by the DIRECTED
  /// (sour, dest) switch pair — the canonical path u -> v is not the
  /// reverse of v -> u in weighted mode, and relays are installed per
  /// direction. This is both the repair footprint (which intermediates
  /// hold relays to drop) and the path-change filter's input.
  std::map<std::pair<topology::SwitchId, topology::SwitchId>,
           std::vector<graph::NodeId>>
      vlink_paths_;
};

}  // namespace gred::core
