// Flat open-addressing hash map for the data-plane fast path: POD
// keys, linear probing over one contiguous slot array, power-of-two
// capacity, backward-shift deletion (no tombstones). Lookups touch a
// single cache line in the common case, which is what makes indexed
// flow-table matches O(1) instead of the O(entries) scans they replace.
//
// Deliberately minimal: no iteration, no rehash-stability, value type
// must be trivially copyable (the flow tables store u32 indices into
// their entry vectors). Not a general-purpose container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gred {

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key for pair-indexed tables (e.g. relay tuples keyed by
/// <sour, dest>). Full 2x64-bit equality; hashed by mixing both limbs.
struct Key2 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Key2&) const = default;
};

inline std::uint64_t flat_hash(std::uint64_t k) { return mix64(k); }
inline std::uint64_t flat_hash(const Key2& k) {
  return mix64(k.a ^ mix64(k.b));
}

template <typename Key, typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Inserts `key -> value`, overwriting an existing mapping.
  void insert_or_assign(const Key& key, const Value& value) {
    if (slots_.empty() || size_ + 1 > (capacity() * 7) / 8) grow();
    std::size_t i = flat_hash(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        slots_[i].value = value;
        return;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = {key, value, true};
    ++size_;
  }

  /// Pointer to the mapped value, or nullptr when absent.
  const Value* find(const Key& key) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = flat_hash(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Removes `key`; true when it was present. Backward-shift deletion
  /// keeps probe chains intact without tombstones.
  bool erase(const Key& key) {
    if (slots_.empty()) return false;
    std::size_t i = flat_hash(key) & mask_;
    while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask_;
    if (!slots_[i].used) return false;
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (slots_[j].used) {
      const std::size_t home = flat_hash(slots_[j].key) & mask_;
      // Shift back unless the entry already sits in [home, hole].
      const bool reachable = hole <= j ? (home <= hole || home > j)
                                       : (home <= hole && home > j);
      if (reachable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t capacity() const { return slots_.size(); }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.used) insert_or_assign(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gred
