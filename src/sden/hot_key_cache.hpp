// Per-switch hot-key cache for the retrieval path (ROADMAP "Hotspot
// traffic"). Zipf retrieval traffic concentrates on a few keys; a
// small set-associative cache at each ingress switch answers repeats
// of those keys without routing to the home switch, cutting both tail
// delay and home-switch load.
//
// Coherence rule (the invariant the soak tests pin): a cached entry is
// only served while nothing that could move, rewrite, or delete data
// has happened since it was filled. SdenNetwork enforces it at the
// mutation itself: every forwarding change (network.hpp) bumps the
// global epoch, and every storage write bumps its own key's version
// slot. An
// entry whose epoch or key version moved is a miss. Outside the
// network only FaultSession bumps the epoch, on a hard fault (a crash
// destroys data without any write).
//
// Layout: each switch's set keeps its hot words apart from its
// entries. The ways' tags (the digest's first eight bytes) sit next to
// each other, then the ways' fill epochs, then their key versions; the
// full digest and the answer stay in the cold Entry. A probe compares
// tags and reads the rest only for a way whose tag matches, and a fill
// picks its way from the same words (DESIGN.md §15).
//
// Concurrency: probe() is safe concurrently with other probes (the
// CLOCK reference bits and the hit/miss tallies are relaxed atomics)
// and invalidate_id() with itself (shards deliver concurrently);
// insert()/invalidate_all()/ensure_switches() are control-plane-side
// and must not run concurrently with probes, like any control-plane
// mutation vs. routing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "crypto/sha256.hpp"
#include "topology/edge_network.hpp"

namespace gred::sden {

class HotKeyCache {
 public:
  /// One cached retrieval answer, the cold part of a way: a probe
  /// reads it only where the way's tag matches. The payload string
  /// keeps its capacity across evictions and refills, so a warmed cache
  /// inserts and serves without heap allocation for same-sized payloads.
  struct Entry {
    crypto::Digest digest{};  ///< full H(d): no false hits by design
    std::string payload;
    topology::SwitchId home = 0;  ///< switch that served the fill
    topology::ServerId responder = topology::kNoServer;
  };

  /// How GredProtocol::retrieve uses the cache.
  enum class Mode {
    kLearn,  ///< probe, and insert on miss (single-threaded callers)
    kServe,  ///< probe only — safe for concurrent retrievals
  };

  /// `switches` per-switch sets of `ways` entries each.
  HotKeyCache(std::size_t switches, std::size_t ways);

  std::size_t switch_count() const { return switch_count_; }
  std::size_t ways() const { return ways_; }

  /// Master switch: while false, probe() always misses (cheaply) and
  /// insert() is a no-op. Lets differential tests compare cached vs.
  /// uncached retrievals on the same network.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  Mode mode() const { return mode_; }
  void set_mode(Mode m) { mode_ = m; }

  /// Looks `digest` up in switch `sw`'s set. Returns the entry on a
  /// hit (payload/home/responder readable until the next control-plane
  /// mutation), nullptr on a miss. Allocation-free.
  GRED_HOT_PATH const Entry* probe(topology::SwitchId sw,
                                   const crypto::Digest& digest);

  /// Fills switch `sw`'s set with a served retrieval: into the key's
  /// own live way if it has one, else into the first empty or stale
  /// way, else into CLOCK's victim. Returns the way filled, or ways()
  /// when the cache is off or `sw` is out of range. One call per
  /// learn-mode miss, so on skewed traffic most requests pay it; the
  /// payload copy reuses the way's string capacity, so a warmed cache
  /// fills without allocating.
  GRED_HOT_PATH std::size_t insert(topology::SwitchId sw,
                                   const crypto::Digest& digest,
                                   const std::string& payload,
                                   topology::SwitchId home,
                                   topology::ServerId responder);

  /// Drops every cached entry (epoch bump, O(1)): every forwarding
  /// change (SdenNetwork::note_change).
  void invalidate_all() {
    // relaxed: control-plane mutations never run concurrently with
    // probes (the network-wide contract), so the bump needs atomicity
    // for the concurrent-probe readers only, not ordering.
    epoch_.fetch_add(1, std::memory_order_relaxed);
    // relaxed: same single-writer control-plane tally as above.
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drops every cached copy of one id (O(1) version-slot bump): every
  /// storage write of it. Ids sharing the slot only cost a refill.
  void invalidate_id(const crypto::Digest& digest) {
    // relaxed: concurrent shard deliveries may bump the same slot, so
    // the bump must be atomic; probes never run concurrently with
    // writes (the network-wide contract), so no ordering is needed.
    versions_[version_slot(tag_of(digest))].fetch_add(
        1, std::memory_order_relaxed);
    // relaxed: commutative tally.
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Grows to cover `switches` (dynamics add_switch). Existing entries
  /// are kept; reference bits reset (they are only eviction hints).
  void ensure_switches(std::size_t switches);

  /// Empties the cache outright (epoch bump + slot reset), returning
  /// payload capacity to the allocator.
  void clear();

  // --- statistics (test/bench plumbing; relaxed tallies) ---
  std::uint64_t hits() const {
    // relaxed: commutative tally, read for reporting only.
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    // relaxed: commutative tally, read for reporting only.
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t invalidations() const {
    // relaxed: commutative tally, read for reporting only.
    return invalidations_.load(std::memory_order_relaxed);
  }
  double hit_rate() const {
    const double h = static_cast<double>(hits());
    const double total = h + static_cast<double>(misses());
    return total == 0.0 ? 0.0 : h / total;
  }
  void reset_stats();

 private:
  std::size_t slot_base(topology::SwitchId sw) const {
    return static_cast<std::size_t>(sw) * ways_;
  }
  /// Switch `sw`'s hot words: `ways_` tags, then `ways_` fill epochs
  /// (0: the way is empty), then `ways_` fill versions.
  std::uint64_t* set_words(topology::SwitchId sw) {
    return set_words_.data() +
           static_cast<std::size_t>(sw) * kWordsPerWay * ways_;
  }
  static constexpr std::size_t kWordsPerWay = 3;  ///< tag, epoch, version
  /// A way's tag: the digest's first eight bytes, which also pick the
  /// key's version slot (position and H(d) mod s use the last eight).
  static std::uint64_t tag_of(const crypto::Digest& digest) {
    std::uint64_t prefix = 0;
    std::memcpy(&prefix, digest.data(), sizeof prefix);
    return prefix;
  }
  static std::size_t version_slot(std::uint64_t tag) {
    return static_cast<std::size_t>(tag) & (kVersionSlots - 1);
  }
  std::uint64_t version_of(std::uint64_t tag) const {
    // relaxed: see invalidate_id.
    return versions_[version_slot(tag)].load(std::memory_order_relaxed);
  }
  static constexpr std::size_t kVersionSlots = std::size_t{1} << 14;

  std::size_t switch_count_ = 0;
  std::size_t ways_ = 0;
  bool enabled_ = true;
  Mode mode_ = Mode::kLearn;
  std::vector<Entry> entries_;  ///< flattened [switch][way]
  std::vector<std::uint64_t> set_words_;  ///< [switch][tags|epochs|versions]
  /// CLOCK reference bits, one per entry. Separate atomic array:
  /// concurrent probes touch them, and Entry itself must stay movable.
  std::unique_ptr<std::atomic<std::uint8_t>[]> ref_;
  std::vector<std::size_t> hand_;  ///< per-switch CLOCK hand (a way)
  std::unique_ptr<std::atomic<std::uint64_t>[]> versions_;  ///< per slot
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::uint64_t insertions_ = 0;  ///< control-plane-side only
};

}  // namespace gred::sden
