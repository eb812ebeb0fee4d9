// The packet format of the GRED data plane. Mirrors the P4 header the
// prototype parses: a request tag (placement vs retrieval, Section V-C),
// the data identifier and its hashed virtual-space position, and the
// virtual-link relay fields <dest, sour, relay> of Section V-A used
// while a packet traverses a multi-hop DT edge.
#pragma once

#include <cstdint>
#include <string>

#include "common/thread_annotations.hpp"
#include "crypto/data_key.hpp"
#include "geometry/point.hpp"
#include "topology/edge_network.hpp"

namespace gred::sden {

using SwitchId = topology::SwitchId;
using ServerId = topology::ServerId;
inline constexpr SwitchId kNoSwitch = static_cast<SwitchId>(-1);
/// Packet::relay_link value for "no compiled relay entry".
inline constexpr std::uint32_t kNoRelayLink = 0xffffffffu;

enum class PacketType : std::uint8_t {
  kPlacement,  ///< deliver payload to the responsible server
  kRetrieval,  ///< request the data back from the responsible server
  kRemoval,    ///< invalidate the data (Section V-B: items expire or
               ///< migrate to the cloud); routed like a retrieval
};

struct Packet {
  PacketType type = PacketType::kPlacement;

  /// Application-level data identifier d.
  std::string data_id;
  /// H(d) reduced to the virtual space (Section III).
  geometry::Point2D target;
  /// Payload carried by a placement (empty for retrievals).
  std::string payload;

  // --- virtual-link traversal state (Section V-A) ---
  /// End switch of the virtual link currently being traversed, or
  /// kNoSwitch when the packet is in greedy mode.
  SwitchId vlink_dest = kNoSwitch;
  /// Source switch of the virtual link (diagnostics; the paper's d.sour).
  SwitchId vlink_sour = kNoSwitch;

  /// Compiled fast path only (fast-path metadata, not on the wire):
  /// the index, in the route plan's relay array, of the entry the
  /// current switch uses toward vlink_dest (kNoRelayLink when it has
  /// none). Every plan of a network indexes the same array, so the
  /// index survives shard handoffs; Switch::process ignores it.
  std::uint32_t relay_link = kNoRelayLink;

  bool on_virtual_link() const { return vlink_dest != kNoSwitch; }
  void clear_virtual_link() {
    vlink_dest = kNoSwitch;
    vlink_sour = kNoSwitch;
    relay_link = kNoRelayLink;
  }

  // --- cached key derivation (fast-path metadata, not on the wire) ---
  /// H(d), filled in by whoever already hashed data_id (GredProtocol,
  /// the bench drivers). The terminal switch needs H(d) for the
  /// H(d) mod s server choice; the cache spares it a second SHA-256
  /// per packet. Transparent to equality of routing results: a packet
  /// without the cache routes identically, just slower.
  bool has_key_digest = false;
  crypto::Digest key_digest{};

  /// Retry ordinal of this packet (0 = first send). Not on the wire:
  /// it only salts the deterministic flaky-link drop hash so a resend
  /// of the same request rolls a fresh drop decision instead of
  /// deterministically falling into the same hole forever. Zero keeps
  /// the salt bit-identical to the pre-retry derivation.
  std::uint32_t retry_attempt = 0;

  void set_key(const crypto::DataKey& key) {
    key_digest = key.digest();
    has_key_digest = true;
  }
  /// The packet's data key: cached digest when present, else derived
  /// from data_id (identical by construction).
  crypto::DataKey key() const {
    return has_key_digest ? crypto::DataKey(key_digest) : derive_key();
  }
  /// The key hashed from data_id, whatever the cache holds.
  // cold: runs SHA-256 over the identifier; every fast-path sender
  // caches the digest (set_key), so a routed packet never gets here.
  GRED_COLD_PATH crypto::DataKey derive_key() const {
    return crypto::DataKey(data_id);
  }
};

}  // namespace gred::sden
