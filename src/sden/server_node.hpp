// An edge server in the simulator: bounded key-value storage (its item
// count is the paper's per-server load for the max/avg metric) plus a
// retrieval counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sden/item_store.hpp"
#include "topology/edge_network.hpp"

namespace gred::sden {

class ServerNode {
 public:
  explicit ServerNode(const topology::EdgeServer& info) : info_(info) {}

  // The retrieval counter is atomic (see note_retrieval), which costs
  // the implicit copy/move operations; they are spelled out here.
  ServerNode(const ServerNode& o)
      : info_(o.info_),
        items_(o.items_),
        retrievals_served_(o.retrievals_served_.load()) {}
  ServerNode(ServerNode&& o) noexcept
      : info_(std::move(o.info_)),
        items_(std::move(o.items_)),
        retrievals_served_(o.retrievals_served_.load()) {}
  ServerNode& operator=(const ServerNode& o) {
    if (this != &o) {
      info_ = o.info_;
      items_ = o.items_;
      retrievals_served_.store(o.retrievals_served_.load());
    }
    return *this;
  }
  ServerNode& operator=(ServerNode&& o) noexcept {
    info_ = std::move(o.info_);
    items_ = std::move(o.items_);
    retrievals_served_.store(o.retrievals_served_.load());
    return *this;
  }

  const topology::EdgeServer& info() const { return info_; }

  /// Stores (or overwrites) an item. Fails with kUnavailable when the
  /// capacity (if bounded) is exhausted — the trigger for the range
  /// extension in Section V-B.
  Status store(const std::string& id, std::string payload);

  /// Returns the payload if present.
  std::optional<std::string> fetch(const std::string& id) const;

  /// Allocation-free lookup: pointer to the stored payload (valid
  /// until the item is overwritten or erased), or nullptr. The route
  /// fast path copies through this into reused scratch capacity
  /// instead of materializing an optional<string>. One dependent cache
  /// miss: the ItemStore slot holds id and payload inline.
  const std::string* find(const std::string& id) const {
    return items_.find(id);
  }

  bool contains(const std::string& id) const { return items_.contains(id); }

  /// Removes an item; true when it existed.
  bool erase(const std::string& id);

  /// Currently stored items — the paper's load metric.
  std::size_t item_count() const { return items_.size(); }
  /// Cumulative retrievals served (diagnostics).
  std::size_t retrievals_served() const {
    // relaxed: standalone diagnostic tally (see note_retrieval).
    return retrievals_served_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return info_.capacity; }
  bool at_capacity() const {
    return info_.capacity != 0 && items_.size() >= info_.capacity;
  }
  /// Remaining capacity; SIZE_MAX when unbounded.
  std::size_t remaining_capacity() const;

  /// Records a served retrieval (called by the network walk).
  void note_retrieval() {
    // relaxed: the parallel retrieval replay routes independent
    // requests concurrently, and this commutative counter bump is the
    // only write they share — no ordering with other data needed.
    retrievals_served_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stored items, iterable as (id, payload) pairs.
  const ItemStore& items() const { return items_; }

 private:
  topology::EdgeServer info_;
  ItemStore items_;
  std::atomic<std::size_t> retrievals_served_{0};
};

}  // namespace gred::sden
