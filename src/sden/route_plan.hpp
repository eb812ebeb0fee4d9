// The compiled data plane. Routing over the live Switch/FlowTable
// objects chases five scattered heap allocations per hop (switch ->
// table -> candidate columns -> neighbor entry -> graph adjacency),
// and on random workloads those dependent cache misses cost several
// times more than the actual arithmetic. RoutePlan flattens the
// forwarding state of every switch into ONE contiguous region of a
// shared array — header, candidate position columns, and forwarding
// actions back to back — so a greedy hop performs a single random
// jump (offset table, then the region) and streams the rest
// sequentially, which the hardware prefetcher hides. Physical-link
// weights (and link-existence) are precompiled into every action, so
// the steady-state walk never touches the Switch objects or the graph
// at all.
//
// Per-switch region layout inside `hot` (doubles; integers are
// bit_cast-packed so the region is a single typed allocation):
//
//   base[0]  px               own virtual position
//   base[1]  py
//   base[2]  u64( cand_count   << 32 | server_begin )
//   base[3]  u64( server_count << 32 | flags )        flags: bit0 dt,
//                                                     bit1 deliver_fallback
//   base[4 .. 4+k)        candidate x coordinates
//   base[4+k .. 4+2k)     candidate y coordinates
//   base[4+2k .. 4+3k)    u64( next_hop << 32 | vlink_dest )
//   base[4+3k .. 4+4k)    link weight to next_hop (NaN = missing link)
//
// The plan is a pure cache: SdenNetwork stamps every switch a mutator
// touches, and sync_plan patches exactly the switches stamped since a
// plan last synced — lazily in route(), and per shard at the start of
// every sharded round. No caller refreshes a plan. Semantics are
// bit-identical to the oracle, Switch::process walked by
// reference_router.hpp; the differentials in tests/data_plane_test.cpp
// and tests/shard_test.cpp hold the paths together. A switch with
// range-extension rewrites sets deliver_fallback, and its delivery
// asks Switch::deliver for the rewrite targets.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/mutex.hpp"

namespace gred::sden {

/// Compact switch id inside the plan (ids are dense and small; 32 bits
/// keeps the packed actions to one double each).
inline constexpr std::uint32_t kNoPlanSwitch = 0xffffffffu;

/// Offset-table sentinel for a switch with no region in this plan. The
/// whole-network plan never contains it; shard-subset plans
/// (SdenNetwork::compile_plan_subset) use it for switches owned by
/// other shards, whose walks must never be stepped here.
inline constexpr std::uint32_t kPlanNoRegion = 0xffffffffu;

inline constexpr std::uint32_t kPlanFlagDt = 1u;
inline constexpr std::uint32_t kPlanFlagDeliverFallback = 2u;

/// Header words per switch region before the candidate columns.
inline constexpr std::size_t kPlanHeaderWords = 4;

inline double plan_pack(std::uint32_t hi, std::uint32_t lo) {
  return std::bit_cast<double>((static_cast<std::uint64_t>(hi) << 32) | lo);
}
inline std::uint32_t plan_hi(double d) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(d) >> 32);
}
inline std::uint32_t plan_lo(double d) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(d));
}

/// Relay action for one <switch, vlink destination> pair.
struct PlanRelay {
  std::uint32_t succ = kNoPlanSwitch;  ///< next hop along the virtual link
  std::uint32_t pad = 0;
  double weight = 0.0;  ///< link weight to succ; NaN when missing
};

struct RoutePlan {
  /// Start of each switch's region inside `hot`.
  std::vector<std::uint32_t> offset;
  /// All per-switch regions, back to back (layout above).
  std::vector<double> hot;
  /// Attached servers of every switch, serial order, concatenated.
  std::vector<std::uint32_t> servers;
  /// <switch, dest> -> relay action; first-installed entry wins,
  /// exactly like FlowTable::find_relay.
  FlatMap<Key2, PlanRelay> relays;
  /// Per-switch list of the relay dests actually present in `relays`
  /// (first-wins deduped). The FlatMap has no iteration, so this
  /// sidecar is what lets a patch erase exactly one switch's stale
  /// relay keys. Cold-side metadata: the walk never reads it.
  std::vector<std::vector<std::uint32_t>> relay_dests;
  /// Words in `hot` no longer referenced by any offset — left behind
  /// when a patch moved a grown region to the tail or shrank one in
  /// place. Patching compacts (recompiles) once this passes half the
  /// array.
  std::size_t dead_words = 0;
  /// The SdenNetwork stamp this plan reflects (sync_plan).
  std::uint64_t synced = 0;

  void clear() {
    offset.clear();
    hot.clear();
    servers.clear();
    relays.clear();
    relay_dests.clear();
    dead_words = 0;
    synced = 0;
  }
};

/// One switch's recompiled state inside a PlanPatch.
struct PlanPatchRegion {
  std::uint32_t sw = 0;
  /// Where the region words land in `hot`: the old offset when the new
  /// region fits in place, else the (aligned) append position.
  std::uint32_t new_offset = 0;
  /// Start of the switch's server slice; points at the existing slice
  /// when its content is unchanged (then `servers` below is empty).
  std::uint32_t server_begin = 0;
  std::vector<double> words;           ///< compiled region blob
  std::vector<std::uint32_t> servers;  ///< slice to write at server_begin
  std::vector<std::uint32_t> dests;    ///< new relay_dests[sw] value
  /// Relay inserts, already first-wins deduped per dest.
  std::vector<std::pair<Key2, PlanRelay>> relays;
};

/// A prepared two-phase route-plan patch (SdenNetwork::sync_plan).
/// prepare_plan_patch performs every allocation — compiling the
/// touched regions, growing hot/offset/servers/relay_dests to their
/// final sizes, reserving FlatMap slack — so commit_plan_patch is a
/// pure write pass that the hot-path verifier admits (no allocation,
/// no locks, no I/O).
struct PlanPatch {
  std::vector<PlanPatchRegion> regions;
  /// Words orphaned by moved or shrunk regions, added to
  /// RoutePlan::dead_words at commit.
  std::size_t dead_delta = 0;
};

/// The network's own plan plus its sync coordination. Held behind a
/// unique_ptr so SdenNetwork stays movable (the address also keeps the
/// dirty flag stable across moves). Routing threads only ever read
/// `dirty` and `plan`; the first router after a stamp syncs under the
/// mutex while late arrivals wait, then everyone reads the result.
struct PlanState {
  gred::Mutex rebuild_mutex;
  std::atomic<bool> dirty{true};
  /// tsa: deliberately NOT GRED_GUARDED_BY(rebuild_mutex) — the steady
  /// state reads `plan` lock-free after an acquire load of
  /// dirty==false (double-checked publication — the syncing router's
  /// release store of dirty publishes the finished plan). Only syncs,
  /// which do hold rebuild_mutex, write it.
  RoutePlan plan;
};

}  // namespace gred::sden
