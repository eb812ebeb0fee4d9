#include "sden/hot_key_cache.hpp"

namespace gred::sden {

HotKeyCache::HotKeyCache(std::size_t switches, std::size_t ways)
    // Zero ways would make every set degenerate (and CLOCK spin
    // forever); clamp to direct-mapped instead of depending on
    // gred_check from inside sden (check links sden).
    : switch_count_(switches), ways_(ways == 0 ? 1 : ways) {
  entries_.resize(switch_count_ * ways_);
  ref_ = std::make_unique<std::atomic<std::uint8_t>[]>(entries_.size());
  hand_.assign(switch_count_, 0);
  versions_ = std::make_unique<std::atomic<std::uint64_t>[]>(kVersionSlots);
}

const HotKeyCache::Entry* HotKeyCache::probe(topology::SwitchId sw,
                                             const crypto::Digest& digest) {
  if (!enabled_ || sw >= switch_count_) return nullptr;
  // relaxed: entries are only written by the control-plane side, which
  // never runs concurrently with probes; the epoch read needs no
  // ordering against them.
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  const std::size_t base = slot_base(sw);
  for (std::size_t w = 0; w < ways_; ++w) {
    const Entry& e = entries_[base + w];
    if (e.used && e.epoch == now && e.digest == digest &&
        e.version == version_of(digest)) {
      // relaxed: the reference bit is an eviction hint — lost or
      // reordered updates only degrade CLOCK's recency estimate.
      ref_[base + w].store(1, std::memory_order_relaxed);
      // relaxed: commutative tally.
      hits_.fetch_add(1, std::memory_order_relaxed);
      return &e;
    }
  }
  // relaxed: commutative tally.
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void HotKeyCache::insert(topology::SwitchId sw, const crypto::Digest& digest,
                         const std::string& payload, topology::SwitchId home,
                         topology::ServerId responder) {
  if (!enabled_ || sw >= switch_count_) return;
  // relaxed: single control-plane-side writer (see header contract).
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  const std::size_t base = slot_base(sw);

  // Refresh in place when the key is already cached, and prefer any
  // unused-or-stale slot (old epoch or old key version) over an
  // eviction.
  std::size_t victim = static_cast<std::size_t>(-1);
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (e.used && e.epoch == now && e.digest == digest) {
      victim = w;
      break;
    }
    if (victim == static_cast<std::size_t>(-1) &&
        (!e.used || e.epoch != now || e.version != version_of(e.digest))) {
      victim = w;
    }
  }
  // CLOCK: sweep from the hand, clearing reference bits until an
  // unreferenced way turns up (bounded: after one lap every bit is 0).
  if (victim == static_cast<std::size_t>(-1)) {
    std::size_t h = hand_[sw];
    for (;;) {
      // relaxed: eviction hint only (see probe).
      if (ref_[base + h].exchange(0, std::memory_order_relaxed) == 0) {
        victim = h;
        hand_[sw] = static_cast<std::uint8_t>((h + 1) % ways_);
        break;
      }
      h = (h + 1) % ways_;
    }
  }

  Entry& e = entries_[base + victim];
  e.digest = digest;
  e.payload.assign(payload);  // reuses the slot's string capacity
  e.home = home;
  e.responder = responder;
  e.epoch = now;
  e.version = version_of(digest);
  e.used = true;
  // relaxed: eviction hint only (see probe).
  ref_[base + victim].store(1, std::memory_order_relaxed);
  ++insertions_;
}

void HotKeyCache::ensure_switches(std::size_t switches) {
  if (switches <= switch_count_) return;
  switch_count_ = switches;
  entries_.resize(switch_count_ * ways_);
  ref_ = std::make_unique<std::atomic<std::uint8_t>[]>(entries_.size());
  hand_.assign(switch_count_, 0);
}

void HotKeyCache::clear() {
  invalidate_all();
  for (Entry& e : entries_) {
    e.used = false;
    e.payload = std::string();
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    // relaxed: control-plane-side reset.
    ref_[i].store(0, std::memory_order_relaxed);
  }
  hand_.assign(switch_count_, 0);
}

void HotKeyCache::reset_stats() {
  // relaxed: control-plane-side reset of reporting tallies.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
  insertions_ = 0;
}

}  // namespace gred::sden
