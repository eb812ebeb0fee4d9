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

namespace gred::obs {
class SwitchLoadTracker;
}  // namespace gred::obs

namespace gred::core {

/// Replication policy of the fault-tolerance layer. Replication is
/// opt-in: a default-constructed Controller keeps the paper's
/// single-copy placement; enable_replication() switches every
/// placement, migration, and dynamics repair to k copies.
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

  /// The (switch, server) that should store `key` absent any range
  /// extension: home switch, then serial H(d) mod s.
  struct Placement {
    topology::SwitchId sw = 0;
    topology::ServerId server = topology::kNoServer;
  };
  Result<Placement> expected_placement(const sden::SdenNetwork& net,
                                       const crypto::DataKey& key) const;

  /// The server a *new* store of `key` must land on right now: the
  /// expected placement, redirected to the delegate when the home
  /// server has an active range extension. Migration and orphan
  /// re-placement go through this so they obey the same rewrites the
  /// data plane does.
  Result<topology::ServerId> resolve_store_target(
      const sden::SdenNetwork& net, const crypto::DataKey& key) const;

  // --- Replication (fault-tolerance layer) ---

  /// Turns on k-replica placement and immediately brings every stored
  /// item up to the replication factor (transactionally). With
  /// replication on, migrate_items becomes replica-aware and every
  /// dynamics op ends with a restore_replication pass.
  Status enable_replication(sden::SdenNetwork& net,
                            ReplicationOptions opts = {});
  /// Effective copies per item: 1 while replication is disabled.
  std::size_t replication_factor() const {
    return replication_enabled_ ? replication_.factor : 1;
  }

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

  /// Expected placement of every replica of `key`: one (switch,
  /// server) per replica home, H(d) mod s at each home.
  Result<std::vector<Placement>> replica_placements(
      const sden::SdenNetwork& net, const crypto::DataKey& key) const;

  /// Distinct rewrite-aware store targets across all replica homes
  /// (order follows replica_placements; duplicates collapsed).
  Result<std::vector<topology::ServerId>> replica_targets(
      const sden::SdenNetwork& net, const crypto::DataKey& key) const;

  /// Re-creates missing replica copies from a surviving holder until
  /// every item is back at the replication factor. Transactional:
  /// on failure every created copy is erased again. Returns the number
  /// of copies created.
  Result<std::size_t> restore_replication(sden::SdenNetwork& net);

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

  /// Items moved by the last add_switch/remove_switch/remove_link
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
  /// reverse-order undo. Undo cannot fail: undoing step i needs only
  /// the slot step i freed, and every later step is already undone.
  /// Steps of one (to, id) pair must be unique within a plan.
  class ItemMoves {
   public:
    void copy(const std::string& id, topology::ServerId from,
              topology::ServerId to) {
      steps_.push_back({Kind::kCopy, id, from, to, {}});
    }
    void move(const std::string& id, topology::ServerId from,
              topology::ServerId to) {
      steps_.push_back({Kind::kMove, id, from, to, {}});
    }
    void drop(const std::string& id, topology::ServerId from) {
      steps_.push_back({Kind::kDrop, id, from, from, {}});
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
      std::string payload;  ///< a drop's payload, kept for undo
    };
    void undo_to(sden::SdenNetwork& net, std::size_t mark);

    std::vector<Step> steps_;
    std::size_t applied_ = 0;
  };

  /// Pre-op state a failed add_switch / remove_switch / remove_link
  /// restores, so a dynamics op is all or nothing.
  struct Checkpoint {
    topology::EdgeNetwork description;
    VirtualSpace space;
    std::vector<std::pair<topology::SwitchId, sden::RewriteEntry>> rewrites;
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
  /// topology and space changed: install `delta`, migrate items to
  /// their new homes, and restore the replication factor. Any failure
  /// rolls back to `cp`.
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

  /// Plans and applies the moves that bring every stored item to its
  /// current expected placement. Returns the number of moved items.
  Result<std::size_t> migrate_items(sden::SdenNetwork& net,
                                    ItemMoves& moves);

  /// Replica-aware variant (replication enabled): a copy is in place
  /// when its server is one of the item's replica targets; misplaced
  /// copies move onto missing targets, surplus copies are dropped.
  Result<std::size_t> migrate_items_replicated(sden::SdenNetwork& net,
                                               ItemMoves& moves);

  /// Plans and applies the copies that bring every item back to the
  /// replication factor. Returns the number of copies created.
  Result<std::size_t> restore_replication(sden::SdenNetwork& net,
                                          ItemMoves& moves);

  /// Shared tail of the dynamics ops: restore the replication factor
  /// after a topology change (no-op while replication is off).
  Status repair_replication_after_dynamics(sden::SdenNetwork& net,
                                           ItemMoves& moves);

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
  ReplicationOptions replication_;
  bool replication_enabled_ = false;
};

}  // namespace gred::core
