#include "sden/switch.hpp"

namespace gred::sden {

Decision Switch::process(Packet& pkt, const FaultState* faults) const {
  // Stage 1: virtual-link relay (Section V-A "Transfer in a virtual
  // link"). While d.relay != null and we are not the link endpoint, the
  // packet moves along pre-installed relay tuples without greedy logic.
  if (pkt.on_virtual_link()) {
    if (pkt.vlink_dest == id_) {
      // Endpoint reached: continue in greedy mode from here.
      pkt.clear_virtual_link();
    } else {
      const RelayEntry* relay = table_.find_relay(pkt.vlink_dest);
      if (relay == nullptr) {
        Decision d;
        d.kind = Decision::Kind::kDrop;
        d.drop_reason = "no relay entry for virtual-link destination";
        d.drop_code = ErrorCode::kNoRoute;
        return d;
      }
      Decision d;
      d.kind = Decision::Kind::kForward;
      d.next_hop = relay->succ;
      return d;
    }
  }

  if (!dt_participant_) {
    Decision d;
    d.kind = Decision::Kind::kDrop;
    d.drop_reason = "greedy packet at non-DT transit switch";
    d.drop_code = ErrorCode::kNoRoute;
    return d;
  }

  // Stage 2: Algorithm 2. Across physical and DT neighbors, find v*
  // minimizing the Euclidean distance to the data position, ties broken
  // by the paper's (x, y) rank: a sequential closer_to scan in
  // installation order, the P4 pipeline's series of per-neighbor
  // distance stages.
  const NeighborEntry* best = nullptr;
  for (const NeighborEntry& cand : table_.neighbors()) {
    if (best == nullptr ||
        geometry::closer_to(pkt.target, cand.position, best->position)) {
      best = &cand;
    }
  }
  if (faults != nullptr) {
    // Under faults, the best candidate whose physical next hop is up
    // wins when it still makes strict progress toward the target;
    // otherwise the step is unchanged.
    const NeighborEntry* live = nullptr;
    for (const NeighborEntry& cand : table_.neighbors()) {
      const SwitchId hop = cand.physical ? cand.neighbor : cand.first_hop;
      if (faults->hop_is_down(id_, hop)) continue;
      if (live == nullptr ||
          geometry::closer_to(pkt.target, cand.position, live->position)) {
        live = &cand;
      }
    }
    if (live != nullptr &&
        geometry::closer_to(pkt.target, live->position, position_)) {
      best = live;
    }
  }
  if (best != nullptr &&
      geometry::closer_to(pkt.target, best->position, position_)) {
    Decision d;
    d.kind = Decision::Kind::kForward;
    if (best->physical) {
      d.next_hop = best->neighbor;
    } else {
      // Enter the virtual link toward the multi-hop DT neighbor.
      pkt.vlink_dest = best->neighbor;
      pkt.vlink_sour = id_;
      d.next_hop = best->first_hop;
    }
    return d;
  }

  // Stage 3: no neighbor is closer, so this switch is closest to H(d)
  // among all switches (guaranteed by the DT) and owns the data.
  return deliver(pkt);
}

Decision Switch::deliver(const Packet& pkt) const {
  Decision d;
  if (local_servers_.empty()) {
    d.kind = Decision::Kind::kDrop;
    d.drop_reason = "terminal switch has no attached servers";
    d.drop_code = ErrorCode::kNoRoute;
    return d;
  }

  // Section V-B: serial number H(d) mod s. pkt.key() reuses the cached
  // digest when the sender filled it in (no SHA-256 on the fast path).
  const crypto::DataKey key = pkt.key();
  const std::size_t idx =
      static_cast<std::size_t>(key.mod(local_servers_.size()));
  const ServerId chosen = local_servers_[idx];

  d.kind = Decision::Kind::kDeliver;
  const RewriteEntry* rewrite = table_.find_rewrite(chosen);
  if (rewrite == nullptr) {
    d.targets.push_back({chosen, id_});
    return d;
  }

  // Range extension is active for this server.
  if (pkt.type == PacketType::kPlacement) {
    // Placement goes only to the delegate (Table II's rewrite).
    d.targets.push_back({rewrite->replacement, rewrite->via_switch});
  } else {
    // Retrieval/removal addresses both candidates simultaneously
    // (Section V-C): whichever holds the data responds/erases.
    d.targets.push_back({chosen, id_});
    d.targets.push_back({rewrite->replacement, rewrite->via_switch});
  }
  return d;
}

}  // namespace gred::sden
