// The assembled software-defined edge network (SDEN, Fig. 3): switches
// with flow tables, edge servers, and the physical links between them.
// `route()` walks a packet hop by hop over the compiled forwarding
// state (route_plan.hpp) exactly as the testbed forwards frames, every
// hop over a real physical link, and `deliver()` applies the storage
// side effects at the delivering server(s).
//
// Staleness of derived state is decided here alone: every mutator
// bumps one change count, which also drops the hot-key cache's
// answers, and sync_plan recompiles any plan compiled at an earlier
// count. Every storage write (deliver, store_item, erase_item)
// invalidates its own key's cached answers. Callers never recompile a
// plan; outside this class only a hard fault (FaultSession) drops
// cached answers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "sden/fault_state.hpp"
#include "sden/hot_key_cache.hpp"
#include "sden/packet.hpp"
#include "sden/route_plan.hpp"
#include "sden/server_node.hpp"
#include "sden/switch.hpp"
#include "topology/edge_network.hpp"

namespace gred::obs {
class SwitchLoadTracker;
}  // namespace gred::obs

namespace gred::sden {

/// Outcome of routing one packet. Reusable as routing scratch: route()
/// calls reset(), which clears every field but keeps the vectors' and
/// the payload string's capacity, so a reused RouteResult makes the
/// steady-state routing path allocation-free.
struct RouteResult {
  Status status = Status::Ok();
  /// Physical switch path walked by the request, ingress first. When a
  /// range-extension handoff crosses to a neighbor switch, that switch
  /// is included.
  std::vector<SwitchId> switch_path;
  /// Servers the packet was delivered to (1 normally; 2 for retrieval
  /// under range extension).
  std::vector<ServerId> delivered_to;
  /// For retrievals: the server that actually held the data, and the
  /// returned payload.
  ServerId responder = topology::kNoServer;
  std::string payload;
  bool found = false;
  /// Sum of link weights along switch_path — equals hop_count() on
  /// unit-weight topologies, propagation latency on weighted ones.
  double path_cost = 0.0;

  /// Physical link traversals of the request path.
  std::size_t hop_count() const {
    return switch_path.empty() ? 0 : switch_path.size() - 1;
  }

  /// Marks the route failed with `s`, enforcing the failure-path
  /// contract (route_errors.hpp): the partial switch_path and
  /// path_cost walked so far are kept, but delivery state is cleared —
  /// a failed route never reports delivered_to/responder/payload.
  void fail(Status s) {
    status = std::move(s);
    delivered_to.clear();
    responder = topology::kNoServer;
    payload.clear();
    found = false;
  }

  /// Back to the just-constructed state, retaining heap capacity.
  void reset() {
    status = Status::Ok();
    switch_path.clear();
    delivered_to.clear();
    responder = topology::kNoServer;
    payload.clear();
    found = false;
    path_cost = 0.0;
  }
};

class SdenNetwork {
 public:
  /// Builds switches and servers from the static description. Flow
  /// tables start empty — a controller (gred::core::Controller) must
  /// install state before packets can be routed.
  explicit SdenNetwork(topology::EdgeNetwork description);

  std::size_t switch_count() const { return switches_.size(); }
  std::size_t server_count() const { return servers_.size(); }

  /// Mutable switch access (controller installs); counts as a change.
  Switch& switch_at(SwitchId id) {
    note_change();
    return switches_[id];
  }
  const Switch& switch_at(SwitchId id) const { return switches_[id]; }
  /// Read-only switch access that does NOT count as a change, callable
  /// through a non-const network reference. Inspection passes
  /// (validators, reference routers, metrics) must use this — the
  /// mutable switch_at() makes every plan recompile and empties the
  /// hot-key cache.
  const Switch& const_switch_at(SwitchId id) const { return switches_[id]; }
  /// Mutable access is for wholesale copies into a fresh network;
  /// storage writes go through deliver/store_item/erase_item.
  ServerNode& server(ServerId id) { return servers_[id]; }
  const ServerNode& server(ServerId id) const { return servers_[id]; }

  const topology::EdgeNetwork& description() const { return description_; }
  /// Adds/removes a physical link (dynamics). A change: the endpoints'
  /// plan regions bake in link existence and weight.
  Status add_link(SwitchId a, SwitchId b, double weight = 1.0);
  bool remove_link(SwitchId a, SwitchId b);

  /// Storage writes outside the data plane (controller item moves,
  /// fault wipes); like a routed write, each invalidates its key.
  Status store_item(ServerId sid, const std::string& id,
                    std::string payload);
  bool erase_item(ServerId sid, const std::string& id);

  /// Routes `pkt` from `ingress` until delivery/drop. Placement stores
  /// the payload; retrieval reads it (and bumps the responder's served
  /// counter).
  RouteResult inject(Packet pkt, SwitchId ingress);

  /// Fast-path variant: routes `pkt` in place, writing into `out`
  /// (reset first, capacity kept). The packet's virtual-link fields
  /// are rewritten during the walk and a placement's payload is moved
  /// into storage, so the caller must treat `pkt` as consumed. With a
  /// reused `out` and a cached key digest on the packet, the steady
  /// state performs no heap allocations. Concurrent calls are safe for
  /// retrievals/removals on disjoint (pkt, out) pairs.
  GRED_HOT_PATH void route(Packet& pkt, SwitchId ingress, RouteResult& out);

  /// Capacity hint for RouteResult::switch_path: comfortably above the
  /// greedy walk's typical length (≈ network diameter + virtual-link
  /// detours) so a hinted reserve avoids mid-route growth.
  std::size_t path_reserve_hint() const { return path_reserve_hint_; }

  /// Stored-item count per server, indexed by global server id — the
  /// load vector for the max/avg metric.
  std::vector<std::size_t> server_loads() const;

  /// Flow-table entries per switch (Fig. 9(d)).
  std::vector<std::size_t> table_entry_counts() const;

  /// Adds a new switch with physical links to `links` (dynamics,
  /// Section VI). Returns the new switch id.
  Result<SwitchId> add_switch(const std::vector<SwitchId>& links);

  /// Attaches a fresh server to `sw`.
  Result<ServerId> attach_server(SwitchId sw, std::size_t capacity = 0);

  /// Tears down a leaving switch (dynamics): removes its physical
  /// links and detaches its servers. The switch id stays valid as an
  /// inert transit node so ids remain dense.
  void remove_switch_links(SwitchId sw);

  /// Rolls the topology back to `description`, an earlier state of
  /// this network (controller rollback), dropping the switches and
  /// servers beyond its counts. Tail-only: dropped servers must have
  /// attached to dropped-or-tail switches, which the add_switch path
  /// guarantees. Stored items on dropped servers are destroyed with
  /// them — callers roll back before any migration.
  void restore_topology(topology::EdgeNetwork description);

  /// Whether the network changed since its own plan last synced
  /// (diagnostics and regression tests: a read-only inspection pass
  /// must leave a fresh plan intact).
  bool route_plan_stale() const {
    // acquire: pairs with note_change() and the syncing router's
    // stores.
    return plan_->dirty.load(std::memory_order_acquire);
  }

  /// Whether the network changed since `plan` was compiled (a plan
  /// that was never compiled is stale too).
  bool plan_stale(const RoutePlan& plan) const {
    return plan.synced != changes_;
  }

  /// Compiles a route plan covering exactly the `count` switches
  /// listed in `owned`, from scratch: their regions and their
  /// attached-server slices, plus the whole network's relay array
  /// (identical in every plan, so a relay index means the same entry
  /// in each). The offset table spans all switches, with kPlanNoRegion
  /// for non-owned ones. The whole-network plan owns every switch; the
  /// sharded runtime builds one plan per shard from the same flow
  /// tables, so a walk stepping only through owned regions
  /// (sden/plan_walk.hpp) stays bit-identical to the single-plan walk.
  /// The plan is synced at the current change count. Read-only: does
  /// not touch the network's own cached plan or its dirty flag.
  void compile_plan_subset(RoutePlan& plan, const std::uint32_t* owned,
                           std::size_t count) const;

  /// The one refresh path of the network's own plan and every shard
  /// plan: recompiles `plan` over `owned` (ascending) when the network
  /// changed since it was compiled (plan_stale). O(1) when nothing
  /// changed; must not run concurrently with a walk over `plan`.
  void sync_plan(RoutePlan& plan,
                 const std::vector<std::uint32_t>& owned) const;

  /// Hop bound of a single walk (relay hops included): exceeding it
  /// means a forwarding-table bug, classified as kRoutingLoop. Shared
  /// by route() and the sharded runtime so their bound trips at the
  /// identical step.
  std::size_t max_route_hops() const { return 4 * switches_.size() + 16; }

  /// Compiled delivery at a terminal switch owning the packet's data.
  /// `base` is the terminal's region inside `plan` (which may be a
  /// shard-subset plan — its servers array is self-contained). The
  /// server comes from the plan's server slice, so no Switch memory is
  /// read — except on a switch with range-extension rewrites (the
  /// plan's deliver-fallback flag), where Switch::deliver resolves the
  /// targets. Public for the sharded runtime. Concurrent calls are
  /// safe for retrievals/removals on disjoint (pkt, result) pairs.
  /// Every routed packet ends here, so it stays inside the hot-path
  /// closure; the cold boundaries sit where the work is rare: the
  /// rewrite lookup (Switch::deliver), the placement store, and keys
  /// that were never hashed (Packet::derive_key).
  Status deliver_compiled(const RoutePlan& plan, const double* base,
                          Packet& pkt, std::uint32_t terminal,
                          RouteResult& result);

  /// The one delivery function every router ends in: hands `pkt` from
  /// `terminal` to each target in order. A target on another switch
  /// (range extension) must be reached over a physical link that
  /// survives the injected faults; the handoff hop joins the result's
  /// path and cost. Then the storage side effect at the server: a
  /// placement stores the payload (moved into the last target), a
  /// retrieval reads it back and bumps the server's served counter, a
  /// removal erases it (both invalidate the key's cached answers).
  /// Returns the first failure; targets before it stay applied, and
  /// the caller fails the result.
  Status deliver(const Decision::TargetList& targets, Packet& pkt,
                 SwitchId terminal, RouteResult& result);

  /// Installs (or clears, with nullptr) the injected physical-fault
  /// state. Not owned; the pointer must stay valid while set. The
  /// compiled fast path, the sharded runtime, the reference router and
  /// deliver() all consult it, so their differential stays
  /// bit-identical under faults. Routing with faults installed
  /// classifies drops as kLinkDown.
  void set_fault_state(const FaultState* faults) { faults_ = faults; }
  const FaultState* fault_state() const { return faults_; }

  /// Creates (or resizes) the per-switch hot-key cache with `ways`
  /// entries per switch and returns it. The cache is owned by the
  /// network, which keeps it coherent (see the file comment);
  /// GredProtocol::retrieve consults it.
  HotKeyCache& enable_hot_key_cache(std::size_t ways = 8);
  /// The hot-key cache, or nullptr when never enabled.
  HotKeyCache* hot_key_cache() { return hot_cache_.get(); }
  const HotKeyCache* hot_key_cache() const { return hot_cache_.get(); }

  /// Installs (or clears, with nullptr) the per-switch retrieval-load
  /// tracker consulted by GredProtocol::retrieve. Not owned; must stay
  /// valid while set (same idiom as set_fault_state).
  void set_load_tracker(obs::SwitchLoadTracker* tracker) {
    load_tracker_ = tracker;
  }
  obs::SwitchLoadTracker* load_tracker() const { return load_tracker_; }

 private:
  /// Counts a change that may alter forwarding: every plan goes stale
  /// and every cached retrieval answer is dropped.
  void note_change() {
    ++changes_;
    // release: not needed for publication (the syncing router's
    // release store of dirty=false publishes the plan), kept so a
    // stale flag observed by route_plan_stale() orders after the
    // mutation.
    plan_->dirty.store(true, std::memory_order_release);
    if (hot_cache_) hot_cache_->invalidate_all();
  }

  /// Returns the up-to-date compiled plan, syncing it first when a
  /// change flagged it dirty. The dirty check itself stays on the hot
  /// path (one acquire load); the lock-and-sync lives in
  /// sync_plan_slow behind a cold boundary.
  const RoutePlan& ensure_plan();
  // cold: takes the rebuild mutex and syncs the plan; runs only after
  // a control-plane mutation, never in the steady state.
  GRED_COLD_PATH void sync_plan_slow();
  topology::EdgeNetwork description_;
  std::vector<Switch> switches_;
  std::vector<ServerNode> servers_;
  /// Mutations so far. Starts at 1 so a never-compiled plan
  /// (synced == 0) is stale.
  std::uint64_t changes_ = 1;
  std::size_t path_reserve_hint_ = 16;
  std::unique_ptr<PlanState> plan_;
  const FaultState* faults_ = nullptr;
  std::unique_ptr<HotKeyCache> hot_cache_;
  obs::SwitchLoadTracker* load_tracker_ = nullptr;
};

}  // namespace gred::sden
