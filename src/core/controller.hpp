// The GRED SDN controller (Section III "Control plane"): computes the
// virtual space (M-position + C-regulation), builds the multi-hop DT,
// and proactively installs all forwarding state into the switches of an
// SdenNetwork. Also owns the control-plane halves of range extension
// (Section V-B) and network dynamics (Section VI).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/multihop_dt.hpp"
#include "core/virtual_space.hpp"
#include "crypto/data_key.hpp"
#include "graph/shortest_path.hpp"
#include "sden/network.hpp"

namespace gred::check {
struct CheckReport;
}  // namespace gred::check

namespace gred::obs {
class SwitchLoadTracker;
}  // namespace gred::obs

namespace gred::core {

/// Replication policy of the fault-tolerance layer. A default-
/// constructed Controller keeps the paper's single-copy placement
/// (factor 1); enable_replication() raises the factor, and every
/// placement and reconcile pass then keeps k copies.
struct ReplicationOptions {
  /// Total copies per item, including the primary (clamped to the
  /// participant count when the space is smaller).
  std::size_t factor = 2;
  /// Region-diverse placement (disaster tolerance): label each
  /// participant with its cell of a region_grid x region_grid
  /// partition of the virtual space and filter the nearest-k order so
  /// the k replica homes land in k distinct regions whenever that many
  /// regions are alive — a correlated regional outage then destroys at
  /// most one copy. Falls back to plain nearest order for whatever
  /// can't be diversified. The primary home (element 0) is never
  /// moved, so single-copy routing is unchanged.
  bool region_diverse = false;
  /// G of the G x G region partition (>= 1).
  std::size_t region_grid = 4;
};

/// Policy of Controller::extend_for_load.
struct LoadExtensionOptions {
  /// Threshold multiple over the mean EWMA (>= 1).
  double hot_factor = 2.0;
  /// Extensions per call (hottest switches first).
  std::size_t max_extensions = 1;
};

class Controller {
 public:
  explicit Controller(VirtualSpaceOptions options = {})
      : options_(options) {}

  /// Full control-plane pipeline over `net`: collect topology, compute
  /// APSP, embed, refine, triangulate, and install all flow entries.
  /// Participants are the switches with at least one attached server;
  /// others act as pure transit (Section IV-C).
  Status initialize(sden::SdenNetwork& net);

  /// Variant used by snapshot restore: skips M-position/C-regulation
  /// and adopts the given switch positions verbatim, then rebuilds the
  /// DT and installs flow entries. `participants` must be exactly the
  /// switches of `net` with at least one server.
  Status initialize_with_positions(
      sden::SdenNetwork& net,
      const std::vector<topology::SwitchId>& participants,
      const std::vector<geometry::Point2D>& positions);

  bool initialized() const { return initialized_; }
  const VirtualSpaceOptions& options() const { return options_; }
  const VirtualSpace& space() const { return space_; }
  const MultiHopDT& dt() const { return dt_; }
  /// Hop-count (unweighted) all-pairs shortest paths — the stretch
  /// metric's baseline.
  const graph::ApspResult& apsp() const { return apsp_; }
  /// Latency-weighted all-pairs shortest paths (equal to apsp() on
  /// unit-weight topologies) — baseline for the cost/latency metrics.
  const graph::ApspResult& apsp_latency() const { return apsp_weighted_; }

  /// The switch whose position is closest to `p` — the owner of any
  /// data hashed there. Ground truth for tests and migration.
  topology::SwitchId home_switch(const geometry::Point2D& p) const;

  /// Where one replica home keeps `key`, as the data plane stores and
  /// reads it (Section V-B/C): a store writes `target`; a retrieval
  /// queries `server` and `target`, so a copy on either holds the home.
  struct Placement {
    topology::SwitchId sw = 0;  ///< the home switch
    /// h: the home switch's server H(d) mod s.
    topology::ServerId server = topology::kNoServer;
    /// t: h's range-extension delegate while one is active, else h.
    topology::ServerId target = topology::kNoServer;
  };
  /// Home 0's placement: the paper's single-copy home.
  Result<Placement> expected_placement(const sden::SdenNetwork& net,
                                       const crypto::DataKey& key) const;
  /// Every replica home's placement, nearest home first (element 0 is
  /// expected_placement's), written into `out`, whose storage is reused.
  Status placements(const sden::SdenNetwork& net, const crypto::DataKey& key,
                    std::vector<Placement>& out) const;

  /// check::validate_placement of every copy stored in `net` against
  /// placements(): each copy on some home's h or t, each home held.
  check::CheckReport validate_placement(const sden::SdenNetwork& net) const;

  // --- Replication (fault-tolerance layer) ---

  /// Sets the replication policy and brings every stored item to it in
  /// one reconcile pass (transactionally), so replication can be turned
  /// on over a populated deployment.
  Status enable_replication(sden::SdenNetwork& net,
                            ReplicationOptions opts = {});
  /// Copies per item: 1 until enable_replication.
  std::size_t replication_factor() const { return replication_.factor; }

  /// The replica home switches of `key`, ascending by virtual-space
  /// distance from the key's position (element 0 == home_switch()).
  /// With region-diverse replication on, the tail homes are the
  /// nearest participants in distinct regions (graceful fallback when
  /// fewer regions than copies are alive).
  std::vector<topology::SwitchId> replica_homes(
      const crypto::DataKey& key) const;

  /// Region label of `p` under the replication policy's G x G
  /// partition of the virtual space (same cell formula as the hotspot
  /// workload grid).
  std::size_t region_of(const geometry::Point2D& p) const;
  /// Region label of participant `sw`; the out-of-range sentinel
  /// grid*grid when `sw` is not a participant.
  std::size_t region_of_participant(topology::SwitchId sw) const;
  /// Distinct region labels among the current participants — the
  /// upper bound on achievable replica diversity.
  std::size_t alive_region_count() const;

  // --- Range extension (Section V-B) ---

  /// Delegates the storage load of `overloaded` to the server with the
  /// most remaining capacity attached to a physical-neighbor switch,
  /// installing the rewrite entry at the overloaded server's switch.
  Status extend_range(sden::SdenNetwork& net,
                      topology::ServerId overloaded);

  /// Undoes an extension: migrates the delegated items that belong to
  /// `overloaded` back (it has capacity again) and removes the rewrite.
  Status retract_range(sden::SdenNetwork& net,
                       topology::ServerId overloaded);

  /// Load-driven range extension (ROADMAP "Hotspot traffic"): instead
  /// of waiting for a server to fill up, extend when a switch's
  /// *observed retrieval load* runs hot. A switch is hot when its
  /// EWMA (tracker windows rolled by the caller) exceeds hot_factor ×
  /// the participant mean. Extends the busiest extension-free server
  /// of each hot switch (at most max_extensions) and moves half its
  /// owned items (by digest parity) onto the delegate, so existing hot
  /// keys — not just future placements — spread across the extension;
  /// retract_range stays the exact inverse (it moves back everything
  /// whose expected placement is the overloaded server). Returns the
  /// number of extensions performed. Call between retrieval windows,
  /// after loads.roll_window() — a control-plane op like any other
  /// dynamics call.
  Result<std::size_t> extend_for_load(sden::SdenNetwork& net,
                                      const obs::SwitchLoadTracker& loads,
                                      const LoadExtensionOptions& opts = {});

  // --- Network dynamics (Section VI) ---

  /// Joins a new switch with the given physical links and
  /// `server_count` servers of `capacity`. Existing switch positions
  /// are untouched (the join "only affects its neighbors"): the new
  /// position is the centroid of its nearest participants, then the DT
  /// and the affected flow tables are repaired and affected items
  /// migrate to the new home. Returns the new switch id.
  Result<topology::SwitchId> add_switch(
      sden::SdenNetwork& net, const std::vector<topology::SwitchId>& links,
      std::size_t server_count, std::size_t capacity = 0);

  /// Removes a switch (leave/failure): its items are re-placed at their
  /// new homes, its links are torn down, and the DT is repaired. Fails
  /// when removal would disconnect the remaining participants. All or
  /// nothing: when re-placement fails, every moved item goes back and
  /// the links, server attachment and virtual space are restored.
  Status remove_switch(sden::SdenNetwork& net, topology::SwitchId sw);

  /// Adds a physical link (new fiber between existing switches):
  /// positions are untouched; shortest paths, relay entries, and flow
  /// tables are recomputed. Placement is unaffected (homes depend only
  /// on positions), so no data migrates.
  Status add_link(sden::SdenNetwork& net, topology::SwitchId u,
                  topology::SwitchId v, double weight = 1.0);

  /// Handles a link failure: tears the link down and reroutes all
  /// virtual links that crossed it. Fails (leaving the link up) when
  /// the failure would disconnect the participants.
  Status remove_link(sden::SdenNetwork& net, topology::SwitchId u,
                     topology::SwitchId v);

  /// Copies moved or dropped by the last reconcile pass that applied
  /// them: a join, leave or link removal, or enable_replication
  /// (diagnostics).
  std::size_t last_migration_count() const { return last_migration_; }

  // --- Delta path (DESIGN.md §14) ---
  //
  // Every dynamics op runs on the delta path: delta-APSP, DT repair
  // and per-switch flow-table patching. A step that fails fails the op,
  // which rolls back. The controller never touches a route plan: every
  // install counts as a network change, and the next sync recompiles
  // the plan whole (SdenNetwork::sync_plan).

  /// Switches whose installable state the last dynamics op patched,
  /// sorted ascending (diagnostics, and the event log's `patched`
  /// count). Empty when the op failed or after a full install
  /// (everything changed).
  const std::vector<topology::SwitchId>& last_affected_switches() const {
    return last_affected_;
  }

 private:
  // The public dynamics/extension ops are thin observability wrappers
  // (dynamics event log, gred::obs) around these.
  Status extend_range_impl(sden::SdenNetwork& net,
                           topology::ServerId overloaded);
  Status retract_range_impl(sden::SdenNetwork& net,
                            topology::ServerId overloaded);
  Result<topology::SwitchId> add_switch_impl(
      sden::SdenNetwork& net, const std::vector<topology::SwitchId>& links,
      std::size_t server_count, std::size_t capacity);
  Status remove_switch_impl(sden::SdenNetwork& net, topology::SwitchId sw);
  Status add_link_impl(sden::SdenNetwork& net, topology::SwitchId u,
                       topology::SwitchId v, double weight);
  Status remove_link_impl(sden::SdenNetwork& net, topology::SwitchId u,
                          topology::SwitchId v);

  /// The one storage-move primitive: item copies, moves and drops
  /// planned against the current storage, then applied store-first (a
  /// step's new copy exists before its source is erased) with
  /// reverse-order undo. A store onto a server that already holds the
  /// id overwrites that copy, and undo puts it back. Undo cannot fail:
  /// undoing step i needs only the slot step i freed, and every later
  /// step is already undone. Steps of one (to, id) pair must be unique
  /// within a plan.
  class ItemMoves {
   public:
    void copy(const std::string& id, topology::ServerId from,
              topology::ServerId to) {
      steps_.push_back({Kind::kCopy, id, from, to, {}, false});
    }
    void move(const std::string& id, topology::ServerId from,
              topology::ServerId to) {
      steps_.push_back({Kind::kMove, id, from, to, {}, false});
    }
    void drop(const std::string& id, topology::ServerId from) {
      steps_.push_back({Kind::kDrop, id, from, from, {}, false});
    }

    /// Applies the steps planned since the last apply, in plan order,
    /// and returns their count. On the first failure those steps are
    /// undone and the failure is returned. Every store and erase goes
    /// through SdenNetwork::store_item/erase_item, which invalidate the
    /// moved id's cached retrieval answers.
    Result<std::size_t> apply(sden::SdenNetwork& net);
    /// Undoes every applied step, newest first.
    void undo(sden::SdenNetwork& net);

   private:
    enum class Kind { kCopy, kMove, kDrop };
    struct Step {
      Kind kind;
      std::string id;
      topology::ServerId from;
      topology::ServerId to;
      /// The copy a drop erased or a store overwrote, kept for undo.
      std::string payload;
      bool overwrote;  ///< the store replaced a copy already at `to`
    };
    void undo_to(sden::SdenNetwork& net, std::size_t mark);

    std::vector<Step> steps_;
    std::size_t applied_ = 0;
  };

  /// Installed range-extension rewrites, with the switch holding each.
  using Rewrites =
      std::vector<std::pair<topology::SwitchId, sden::RewriteEntry>>;

  /// Pre-op state a failed add_switch / remove_switch / remove_link
  /// restores, so a dynamics op is all or nothing. It is also where
  /// reads went when the op began, which the reconcile pass consults.
  struct Checkpoint {
    topology::EdgeNetwork description;
    VirtualSpace space;
    Rewrites rewrites;
    ReplicationOptions replication;
    ItemMoves moves;  ///< the op's applied item moves
  };
  Checkpoint checkpoint(const sden::SdenNetwork& net) const;
  /// Undoes the op's item moves, restores the checkpointed topology,
  /// rewrites and virtual space, reinstalls, and returns `cause`.
  Status roll_back(sden::SdenNetwork& net, Checkpoint& cp, Status cause);

  /// Resets the last-event report at the start of a dynamics op.
  void begin_event();

  /// Rebuilds the DT from scratch over the current APSP and space and
  /// installs every switch: the tail of cold start and rollback.
  Status reinstall(sden::SdenNetwork& net);

  /// One churn event's description for the delta path. Remove events
  /// carry state that must be captured BEFORE the graph and space are
  /// mutated (the leaving node's adjacency, the vlinks crossing it).
  struct GraphDelta {
    enum class Kind { kLinkAdd, kLinkRemove, kSwitchAdd, kSwitchRemove };
    Kind kind = Kind::kLinkAdd;
    topology::SwitchId u = 0;  ///< the switch, or one link endpoint
    topology::SwitchId v = 0;  ///< other endpoint (link events)
    double weight = 1.0;       ///< removed link's weight (kLinkRemove)
    /// kSwitchRemove: u's adjacency, captured before removal.
    std::vector<graph::EdgeTo> removed_edges;
    /// kSwitchRemove: participants whose virtual-link paths crossed u,
    /// captured (as switch ids) before the DT mutation.
    std::vector<topology::SwitchId> vlinks_through;
    bool joined_dt = false;  ///< switch events: u is a participant
  };

  /// The delta path: delta-APSP on both tables, DT repair,
  /// per-participant rebuild of the affected set, and a per-switch
  /// flow-table patch. Returns the first step's error; the caller rolls
  /// back.
  Status rebuild_and_install_incremental(sden::SdenNetwork& net,
                                         const GraphDelta& delta);

  /// Shared tail of add_switch / remove_switch / remove_link after the
  /// topology and space changed: install `delta`, then reconcile every
  /// stored copy. Any failure rolls back to `cp`.
  Status commit_topology_event(sden::SdenNetwork& net,
                               const GraphDelta& delta, Checkpoint& cp);

  /// The one per-switch install: wipes and re-installs the flow tables
  /// of exactly the switches in `touched` (plus any switch holding a
  /// rewrite the topology invalidated) from the current space and DT,
  /// keeping each switch's still-valid rewrites. Sorts and dedupes
  /// `touched` in place. Timed as control-plane phase `phase`.
  Status install_patch(sden::SdenNetwork& net,
                       std::vector<topology::SwitchId>& touched,
                       const char* phase);

  /// The one reconcile pass: brings every stored copy to placements()
  /// (DESIGN.md §14). A copy on a home's h or t is in place and holds
  /// that home. Misplaced copies move onto the targets of unheld homes,
  /// homes still unheld get a copy from a kept holder, and other
  /// misplaced copies are dropped. Where a home has two candidate
  /// copies it keeps the one reads returned when the op began, at the
  /// homes of `cp`'s space, servers, rewrites and replication policy.
  /// Moves and drops apply first (their count is last_migration_count),
  /// then the copies; on failure the applied steps stay in `cp.moves`
  /// for the caller to undo.
  Status reconcile(sden::SdenNetwork& net, Checkpoint& cp);

  /// A joining switch's position: the centroid of its nearest
  /// participants (one step toward the square's centre from a lone one).
  geometry::Point2D fit_position(const sden::SdenNetwork& net,
                                 topology::SwitchId sw) const;

  /// APSP pair refresh from the current physical graph.
  void recompute_apsp(const sden::SdenNetwork& net);
  /// The APSP feeding the embedding and relay paths.
  const graph::ApspResult& routing_apsp() const {
    return options_.weighted_embedding ? apsp_weighted_ : apsp_;
  }

  VirtualSpaceOptions options_;
  VirtualSpace space_;
  MultiHopDT dt_;
  graph::ApspResult apsp_;
  graph::ApspResult apsp_weighted_;
  bool initialized_ = false;
  std::vector<topology::SwitchId> last_affected_;
  std::size_t last_migration_ = 0;
  ReplicationOptions replication_{.factor = 1};
};

}  // namespace gred::core
