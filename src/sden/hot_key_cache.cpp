#include "sden/hot_key_cache.hpp"

#include <algorithm>

namespace gred::sden {

HotKeyCache::HotKeyCache(std::size_t switches, std::size_t ways)
    // Zero ways would make every set degenerate (and CLOCK spin
    // forever); clamp to direct-mapped instead of depending on
    // gred_check from inside sden (check links sden).
    : switch_count_(switches), ways_(ways == 0 ? 1 : ways) {
  entries_.resize(switch_count_ * ways_);
  set_words_.assign(switch_count_ * kWordsPerWay * ways_, 0);
  ref_ = std::make_unique<std::atomic<std::uint8_t>[]>(entries_.size());
  hand_.assign(switch_count_, 0);
  versions_ = std::make_unique<std::atomic<std::uint64_t>[]>(kVersionSlots);
}

const HotKeyCache::Entry* HotKeyCache::probe(topology::SwitchId sw,
                                             const crypto::Digest& digest) {
  if (!enabled_ || sw >= switch_count_) return nullptr;
  // relaxed: ways are only written by the control-plane side, which
  // never runs concurrently with probes; the epoch read needs no
  // ordering against them.
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t tag = tag_of(digest);
  const std::uint64_t* tags = set_words(sw);
  const std::uint64_t* epochs = tags + ways_;
  const std::uint64_t* versions = epochs + ways_;
  const std::size_t base = slot_base(sw);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] != tag) continue;
    const Entry& e = entries_[base + w];
    if (epochs[w] == now && versions[w] == version_of(tag) &&
        e.digest == digest) {
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

std::size_t HotKeyCache::insert(topology::SwitchId sw,
                                const crypto::Digest& digest,
                                const std::string& payload,
                                topology::SwitchId home,
                                topology::ServerId responder) {
  if (!enabled_ || sw >= switch_count_) return ways_;
  // relaxed: single control-plane-side writer (see header contract).
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t tag = tag_of(digest);
  std::uint64_t* tags = set_words(sw);
  std::uint64_t* epochs = tags + ways_;
  std::uint64_t* versions = epochs + ways_;
  const std::size_t base = slot_base(sw);

  // Refresh in place when the key is already cached (whatever its
  // version), else take the first empty or stale way (old epoch or old
  // key version) before evicting.
  std::size_t victim = 0;
  for (; victim < ways_; ++victim) {
    if (tags[victim] == tag && epochs[victim] == now &&
        entries_[base + victim].digest == digest) {
      break;
    }
  }
  if (victim == ways_) {
    for (victim = 0; victim < ways_; ++victim) {
      if (epochs[victim] != now ||
          versions[victim] != version_of(tags[victim])) {
        break;
      }
    }
  }
  // CLOCK: sweep from the hand, clearing reference bits until an
  // unreferenced way turns up (bounded: after one lap every bit is 0).
  if (victim == ways_) {
    std::size_t h = hand_[sw];
    // relaxed: fills have a single writer, which never runs
    // concurrently with probes, so the sweep needs no read-modify-write;
    // the bit is an eviction hint only (see probe).
    while (ref_[base + h].load(std::memory_order_relaxed) != 0) {
      ref_[base + h].store(0, std::memory_order_relaxed);
      if (++h == ways_) h = 0;
    }
    victim = h;
    hand_[sw] = h + 1 == ways_ ? 0 : h + 1;
  }

  Entry& e = entries_[base + victim];
  e.digest = digest;
  e.payload.assign(payload);  // reuses the way's string capacity
  e.home = home;
  e.responder = responder;
  tags[victim] = tag;
  epochs[victim] = now;
  versions[victim] = version_of(tag);
  // relaxed: eviction hint only (see probe).
  ref_[base + victim].store(1, std::memory_order_relaxed);
  ++insertions_;
  return victim;
}

void HotKeyCache::ensure_switches(std::size_t switches) {
  if (switches <= switch_count_) return;
  switch_count_ = switches;
  entries_.resize(switch_count_ * ways_);
  set_words_.resize(switch_count_ * kWordsPerWay * ways_, 0);  // new sets empty
  ref_ = std::make_unique<std::atomic<std::uint8_t>[]>(entries_.size());
  hand_.assign(switch_count_, 0);
}

void HotKeyCache::clear() {
  invalidate_all();
  for (Entry& e : entries_) e.payload = std::string();
  std::fill(set_words_.begin(), set_words_.end(), 0);  // every way empty
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
