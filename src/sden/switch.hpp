// A GRED switch: the data-plane element. `process()` is a faithful
// C++ rendering of the P4 pipeline (Section VII-A) — it consults only
// local state (its own virtual position, its flow table, its attached
// server list) and the packet header, and produces a forwarding
// decision. All global knowledge lives in the controller that
// installed the tables. `process()` is also the routing oracle: the
// compiled fast path (plan_walk.hpp) is held bit-identical to it by
// the differential tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "crypto/data_key.hpp"
#include "geometry/point.hpp"
#include "sden/fault_state.hpp"
#include "sden/flow_table.hpp"
#include "sden/packet.hpp"

namespace gred::sden {

/// Outcome of one pipeline pass. For kDeliver, `targets` lists the
/// (server, via-switch) pairs that must receive the packet: one for the
/// normal case; two for a retrieval under range extension (Section V-C
/// forwards the request to both candidate servers). `via == self` means
/// the server hangs off this switch.
struct Decision {
  enum class Kind { kForward, kDeliver, kDrop };

  struct DeliveryTarget {
    ServerId server = topology::kNoServer;
    SwitchId via = kNoSwitch;
  };

  /// At most two delivery targets exist (retrieval under range
  /// extension addresses the original and the delegate server), so the
  /// list lives inline — a per-hop Decision never touches the heap.
  class TargetList {
   public:
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void push_back(const DeliveryTarget& t) { items_[count_++] = t; }
    const DeliveryTarget& operator[](std::size_t i) const {
      return items_[i];
    }
    const DeliveryTarget* begin() const { return items_; }
    const DeliveryTarget* end() const { return items_ + count_; }

   private:
    DeliveryTarget items_[2];
    std::uint8_t count_ = 0;
  };

  Kind kind = Kind::kDrop;
  SwitchId next_hop = kNoSwitch;          ///< kForward
  TargetList targets;                     ///< kDeliver
  const char* drop_reason = nullptr;      ///< kDrop diagnostics
  /// Classified failure for kDrop (kNoRoute for table misses; routers
  /// surface it verbatim so retry logic can filter retryable drops).
  ErrorCode drop_code = ErrorCode::kInternal;
};

class Switch {
 public:
  explicit Switch(SwitchId id) : id_(id) {}

  SwitchId id() const { return id_; }

  /// DT participants have a virtual position; pure transit switches
  /// (no attached servers, Section IV-C) do not.
  void set_position(const geometry::Point2D& p) {
    position_ = p;
    dt_participant_ = true;
  }
  const geometry::Point2D& position() const { return position_; }
  bool dt_participant() const { return dt_participant_; }

  /// Full reset to a blank transit switch (controller re-installs).
  void reset() {
    position_ = {};
    dt_participant_ = false;
    table_.clear();
    local_servers_.clear();
  }

  FlowTable& table() { return table_; }
  const FlowTable& table() const { return table_; }

  /// Attached servers in serial-number order (the H(d) mod s range).
  void set_local_servers(std::vector<ServerId> servers) {
    local_servers_ = std::move(servers);
  }
  const std::vector<ServerId>& local_servers() const {
    return local_servers_;
  }

  /// Runs the forwarding pipeline on `pkt`, possibly mutating its
  /// virtual-link fields (exactly what the P4 program rewrites): the
  /// relay stage, Algorithm 2's greedy stage, then deliver(). With
  /// injected `faults`, the greedy stage prefers the best candidate
  /// whose physical next hop is up, when that candidate is closer to
  /// the target than this switch.
  Decision process(Packet& pkt, const FaultState* faults = nullptr) const;

  /// The pipeline's last stage at a terminal switch: pick the serving
  /// server(s) by H(d) mod s and the range-extension rewrites
  /// (Section V-B/V-C). kDeliver, or kDrop when no server is attached.
  // cold: the compiled delivery calls it only at a switch with
  // range-extension rewrites (a hotspot's delegation, not the steady
  // state); the rewrite lookup and pkt.key() stay out of the closure.
  GRED_COLD_PATH Decision deliver(const Packet& pkt) const;

 private:
  SwitchId id_;
  geometry::Point2D position_;
  bool dt_participant_ = false;
  FlowTable table_;
  std::vector<ServerId> local_servers_;
};

}  // namespace gred::sden
