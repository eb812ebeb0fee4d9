// Shard-per-core data plane. Partitions the network's switches across
// N shards as contiguous ranges of a Morton (Z-order) traversal of the
// virtual positions, so greedy next-hops — which move between
// virtually close switches — usually stay inside the owning shard.
// Each shard exclusively owns its slice of the compiled forwarding
// state (a RoutePlan subset holding only its switches' regions and
// server slices, plus the network's relay array, which every plan
// holds whole so a packet's relay index crosses a handoff unchanged),
// its RNG block for the open-loop arrival
// process, and its gred::obs metric slot: the shard-local hot path
// takes no locks and touches no shared atomics.
// A hop that crosses a shard boundary travels as an 8-byte packet
// continuation through a fixed-capacity SPSC ring (one per ordered
// shard pair, cache-line-separated indices, batched drain); a full
// ring spills into a pre-reserved per-destination overflow vector, so
// a push can never deadlock or allocate mid-round.
//
// Every round starts by syncing the shard plans: when the network
// changed since they were compiled, the partition is re-derived and
// each shard plan is compiled once (SdenNetwork::sync_plan); nothing
// refreshes them by hand.
//
// Results are bit-identical to SdenNetwork::route by construction:
// both walks execute the same plan_step (sden/plan_walk.hpp) over
// regions compiled by the same SdenNetwork::compile_plan_subset, and
// per-packet lane state (scratch packet, RouteResult, remaining hop
// budget) has exactly one writer at a time — ownership moves between
// shards through the ring's release/acquire pair. Delivery goes
// through the same SdenNetwork::deliver_compiled as route(). The
// three-way differentials in tests/shard_test.cpp and
// tests/data_plane_test.cpp hold this runtime, the compiled fast path,
// and the oracle (reference_route over Switch::process) mutually
// identical, statuses included.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/overflow_buffer.hpp"
#include "common/spsc_ring.hpp"
#include "common/thread_annotations.hpp"
#include "sden/network.hpp"

namespace gred::shard {

/// Compact packet continuation handed between shards: which in-flight
/// packet resumes, and at which (destination-shard-owned) switch.
struct Handoff {
  std::uint32_t pkt = 0;
  std::uint32_t cur = 0;
};

/// Per-round counters, aggregated over all shards after a round ends.
struct RoundStats {
  std::size_t local_hops = 0;       ///< hops that stayed shard-local
  std::size_t cross_handoffs = 0;   ///< continuations pushed to a peer
  std::size_t overflow_spills = 0;  ///< handoffs that found a ring full
  /// Packets completed by each shard (delivery or classified drop).
  std::vector<std::size_t> completed_per_shard;
};

/// Outcome of one open-loop sustained-load round.
struct LoadResult {
  double offered_pps = 0;   ///< configured aggregate arrival rate
  double achieved_pps = 0;  ///< completions / wall-clock duration
  double duration_s = 0;    ///< first scheduled arrival to last completion
  std::size_t completed = 0;
};

/// GRED_SHARDS (validated like GRED_THREADS), falling back to the
/// hardware concurrency when unset or rejected.
std::size_t default_shard_count();

class ShardedDataPlane {
 public:
  /// Partitions `net`'s switches across `shards` shards (0 = use
  /// default_shard_count(); always clamped to the switch count) and
  /// compiles each shard's plan subset from the current flow tables.
  /// Spawns shards-1 persistent worker threads; the calling thread
  /// drives shard 0 during rounds. `net` must outlive this object and
  /// must not be mutated while a round is running.
  explicit ShardedDataPlane(sden::SdenNetwork& net, std::size_t shards = 0);
  ~ShardedDataPlane();

  ShardedDataPlane(const ShardedDataPlane&) = delete;
  ShardedDataPlane& operator=(const ShardedDataPlane&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  /// The shard owning switch `sw` under the partition of the last sync
  /// (construction or the latest round).
  std::uint32_t owner_of(sden::SwitchId sw) const { return owner_[sw]; }

  /// Routes `count` packets, writing results[i] for pkts[i] injected at
  /// ingresses[i] — each bit-identical to SdenNetwork::route on the
  /// same input. Closed-loop: every packet is started as soon as its
  /// ingress shard runs. Caller-owned arrays; results are reset here
  /// (capacity kept, so a reused results array makes repeat rounds of
  /// the same size allocation-free after the first). Safe for
  /// retrievals/removals; placements mutate server storage and must not
  /// target the same server from two shards.
  void replay(const sden::Packet* pkts, const sden::SwitchId* ingresses,
              std::size_t count, sden::RouteResult* results);

  /// Open-loop sustained load: each shard's RNG block draws arrival
  /// times for the packets whose ingress it owns — Poisson
  /// (exponential gaps) or fixed-rate, at the shard's share of
  /// `rate_pps` — and the shard injects each packet once its arrival
  /// instant has passed, regardless of completions (an open-loop
  /// driver, so queueing delay is visible instead of being absorbed
  /// by the generator). latencies_s[i] (when non-null)
  /// receives completion wall-clock minus scheduled arrival for packet
  /// i, or -1 when it never entered the network. Results are
  /// bit-identical to replay() on the same input.
  LoadResult sustained_load(const sden::Packet* pkts,
                            const sden::SwitchId* ingresses,
                            std::size_t count, sden::RouteResult* results,
                            double rate_pps, bool poisson,
                            std::uint64_t seed, double* latencies_s);

  /// Counters from the most recently finished round.
  RoundStats last_round_stats() const;

 private:
  struct alignas(64) Shard {
    // Compiled per-partition state (sync_plans()).
    sden::RoutePlan plan;
    std::vector<std::uint32_t> owned;  ///< owned switch ids, ascending

    // Round-local state, touched only by the owning shard's thread.
    /// Packet indices ingressing here, in start order (ascending
    /// arrival time in an open-loop round).
    std::vector<std::uint32_t> initial;
    /// [dest] ring spill. Fixed-capacity with bounded compaction: a
    /// plain vector spill here once reallocated mid-round under
    /// sustained partial drains (see common/overflow_buffer.hpp).
    std::vector<OverflowBuffer<Handoff>> overflow;
    std::vector<Handoff> drain;  ///< batched ring-pop buffer
    std::size_t local_hops = 0;
    std::size_t handoffs_out = 0;
    std::size_t spills = 0;

    // Read by every shard for termination detection; padded so the
    // frequent increments don't share a line with the plan state.
    alignas(64) std::atomic<std::size_t> completed{0};
  };

  SpscRing<Handoff>& ring(std::size_t from, std::size_t to) {
    return *rings_[from * shards_.size() + to];
  }

  /// Start of a round (and construction): when the network changed
  /// since the shard plans were compiled, re-derives the Morton
  /// partition and compiles every shard plan once.
  void sync_plans();
  void setup_round(const sden::Packet* pkts, const sden::SwitchId* ingresses,
                   std::size_t count, sden::RouteResult* results,
                   bool open_loop);
  void run_round() GRED_EXCLUDES(mu_);
  void worker_main(std::size_t me) GRED_EXCLUDES(mu_);
  void run_shard(std::size_t me);
  GRED_HOT_PATH void start_packet(std::size_t me, std::uint32_t pi);
  GRED_HOT_PATH void walk(std::size_t me, std::uint32_t pi,
                          std::uint32_t cur);
  GRED_HOT_PATH void complete(std::size_t me, std::uint32_t pi);
  GRED_HOT_PATH void handoff(std::size_t me, std::uint32_t dest, Handoff h);
  GRED_HOT_PATH bool flush_overflow(std::size_t me);
  bool all_done() const;

  sden::SdenNetwork& net_;
  std::vector<std::uint32_t> owner_;  ///< switch id -> shard
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SpscRing<Handoff>>> rings_;

  // Round inputs and per-packet lane state. A lane (scratch packet,
  // result, hop budget, latency slot) is written only by the shard
  // currently holding the packet; the ring handoff's release/acquire
  // pair orders the writes for the next holder.
  const sden::Packet* pkts_ = nullptr;
  const sden::SwitchId* ingresses_ = nullptr;
  sden::RouteResult* results_ = nullptr;
  std::size_t count_ = 0;
  std::vector<sden::Packet> lane_pkts_;
  std::vector<std::uint32_t> steps_left_;
  std::vector<std::uint64_t> salts_;
  std::vector<double> arrival_s_;
  double* latencies_s_ = nullptr;
  const sden::FaultState* round_faults_ = nullptr;
  std::size_t round_target_ = 0;  ///< packets the shards must complete
  bool open_loop_ = false;
  double t0_s_ = 0;  ///< wall-clock epoch of the open-loop schedule

  // Round protocol for the persistent workers (none when shards == 1).
  gred::Mutex mu_;
  gred::CondVar round_cv_;
  gred::CondVar done_cv_;
  std::uint64_t round_seq_ GRED_GUARDED_BY(mu_) = 0;
  std::size_t workers_running_ GRED_GUARDED_BY(mu_) = 0;
  bool exiting_ GRED_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace gred::shard
