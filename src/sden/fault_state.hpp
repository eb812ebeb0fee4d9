// Injected physical-layer faults, as the data plane sees them. A
// FaultState describes which switches have crashed, which links are
// down, and which links drop packets probabilistically — the state of
// the PHYSICAL network during the window between a failure and the
// controller's recompute, while the (stale) forwarding tables still
// point into the hole. SdenNetwork::route and the reference router
// consult the same state through SdenNetwork::set_fault_state, so the
// fast-path/live differential stays bit-identical under faults.
//
// Drop decisions are deterministic: a flaky link drops a packet based
// on a hash of (seed, link, packet key digest), never on global RNG
// state, so a seeded chaos run is reproducible packet by packet and
// thread-count invariant.
//
// The struct is owned by the fault injector (gred::fault), not by the
// network; the network holds a raw observer pointer that is null in
// normal operation, costing the steady state one predicted branch per
// route call.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "sden/packet.hpp"

namespace gred::sden {

struct FaultState {
  /// 1 = crashed. Indexed by switch id; ids beyond the vector are up.
  std::vector<std::uint8_t> switch_down;
  /// Canonical (min, max) link key -> drop probability in (0, 1].
  /// 1.0 means the link is hard-down.
  FlatMap<Key2, double> link_drop;
  /// Seed for the per-(packet, link) drop hash.
  std::uint64_t seed = 0;

  /// Switches currently down (kept in step with switch_down so any()
  /// stays O(1) on the per-packet fast path).
  std::size_t down_count = 0;

  bool any() const { return down_count != 0 || !link_drop.empty(); }

  bool switch_is_down(SwitchId s) const {
    return s < switch_down.size() && switch_down[s] != 0;
  }

  static Key2 link_key(SwitchId u, SwitchId v) {
    const std::uint64_t a = u;
    const std::uint64_t b = v;
    return a < b ? Key2{a, b} : Key2{b, a};
  }

  /// Drop probability of link (u, v); 0 when the link is healthy.
  double link_drop_probability(SwitchId u, SwitchId v) const {
    const double* p = link_drop.find(link_key(u, v));
    return p == nullptr ? 0.0 : *p;
  }

  /// Whether every traversal from -> to fails: `to` has crashed or the
  /// link is hard-down. A greedy step under faults skips candidates
  /// whose physical next hop this names (plan_step, Switch::process).
  bool hop_is_down(SwitchId from, SwitchId to) const {
    return switch_is_down(to) || link_drop_probability(from, to) >= 1.0;
  }

  void set_switch_down(SwitchId s, bool down) {
    if (s >= switch_down.size()) switch_down.resize(s + 1, 0);
    const std::uint8_t next = down ? 1 : 0;
    if (switch_down[s] != next) {
      if (down) {
        ++down_count;
      } else {
        --down_count;
      }
    }
    switch_down[s] = next;
  }
  void set_link_drop(SwitchId u, SwitchId v, double probability) {
    link_drop.insert_or_assign(link_key(u, v), probability);
  }
  void clear_link(SwitchId u, SwitchId v) {
    link_drop.erase(link_key(u, v));
  }

  /// Deterministic per-(packet, link) drop decision for probability
  /// `p`: both routers call this with the same salt (the packet's key
  /// digest prefix), so they agree on every drop.
  bool drops(double p, SwitchId u, SwitchId v,
             std::uint64_t packet_salt) const {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    const Key2 k = link_key(u, v);
    const std::uint64_t h =
        mix64(seed ^ mix64(k.a ^ mix64(k.b ^ packet_salt)));
    // Map the hash to [0, 1) with 53-bit precision.
    const double unit =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return unit < p;
  }
};

/// Salt used by both routers for the drop hash: the low 64 bits of the
/// cached key digest when present, else a hash of the identifier. The
/// two derivations agree for any packet built through Packet::set_key.
/// A non-zero retry ordinal is mixed in on top, so a retried request
/// re-rolls every flaky-link drop decision instead of hashing to the
/// identical drop forever; attempt 0 leaves the salt untouched, which
/// keeps plain (non-retry) routing bit-identical to older seeds.
inline std::uint64_t fault_packet_salt(const Packet& pkt) {
  std::uint64_t h = 0;
  if (pkt.has_key_digest) {
    for (std::size_t i = 0; i < 8; ++i) {
      h = (h << 8) | pkt.key_digest[24 + i];
    }
  } else {
    h = 0x9e3779b97f4a7c15ULL;
    for (const char c : pkt.data_id) {
      h = mix64(h ^ static_cast<std::uint8_t>(c));
    }
  }
  if (pkt.retry_attempt != 0) {
    h = mix64(h ^ (0xd1b54a32d192ed03ULL + pkt.retry_attempt));
  }
  return h;
}

}  // namespace gred::sden
