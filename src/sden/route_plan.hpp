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
//   base[4+4k .. 4+5k)    u64( relay link ): for a multi-hop DT
//                         candidate, the index in `relays` of the entry
//                         its first hop uses toward it (kNoRelayLink
//                         when that hop has none, and for physical
//                         neighbours)
//
// After the last region, geometry::kArgminBlock zero words keep every
// address the vector argmin (geometry/argmin.hpp) forms inside the
// array; its masked loads never read past a region's candidates.
//
// Relay hops (the <sour, pred, succ, dest> tuples of multi-hop DT
// edges, Section IV-C) are compiled into one array, `relays`: every
// switch's relay entries, ordered by switch id and then by install
// order. Each entry names its successor, the link weight to it, and the
// index of the entry that successor uses toward the same destination
// (the first one installed for that destination, as in
// FlowTable::find_relay), so a packet on a virtual link steps from
// entry to entry by index (it carries the current one as
// Packet::relay_link) instead of hashing <switch, dest> at every hop. Every plan, the network's own and each
// shard's subset, compiles the whole array in the same order, so an
// index means the same entry on both sides of a shard handoff. A chain
// may cycle (corrupted tables); the walk's hop bound ends it.
//
// The plan is a pure cache, rebuilt whole when stale: SdenNetwork
// counts every mutation, and sync_plan recompiles (compile_plan_subset)
// any plan whose `synced` lags that count — lazily in route(), and per
// shard at the start of every sharded round. No caller refreshes a
// plan. Semantics are bit-identical to the oracle, Switch::process
// walked by reference_router.hpp; the differentials in
// tests/data_plane_test.cpp and tests/shard_test.cpp hold the paths
// together. A switch with range-extension rewrites sets
// deliver_fallback, and its delivery asks Switch::deliver for the
// rewrite targets.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "sden/packet.hpp"

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
/// Columns per candidate: x, y, action, weight, relay link.
inline constexpr std::size_t kPlanColumns = 5;
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
  /// Index of the entry `succ` uses toward the same destination, or
  /// kNoRelayLink when it has none.
  std::uint32_t next = kNoRelayLink;
  double weight = 0.0;  ///< link weight to succ; NaN when missing
};

struct RoutePlan {
  /// Start of each switch's region inside `hot`.
  std::vector<std::uint32_t> offset;
  /// All per-switch regions, back to back (layout above).
  std::vector<double> hot;
  /// Attached servers of every switch, serial order, concatenated.
  std::vector<std::uint32_t> servers;
  /// Every switch's relay entries, linked by index (layout above);
  /// the same array in every plan of a network.
  std::vector<PlanRelay> relays;
  /// The SdenNetwork change count this plan was compiled at
  /// (sync_plan recompiles it once the network's count moves on).
  std::uint64_t synced = 0;

  void clear() {
    offset.clear();
    hot.clear();
    servers.clear();
    relays.clear();
    synced = 0;
  }
};

/// The network's own plan plus its sync coordination. Held behind a
/// unique_ptr so SdenNetwork stays movable (the address also keeps the
/// dirty flag stable across moves). Routing threads only ever read
/// `dirty` and `plan`; the first router after a change syncs under the
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
