// Snapshot save/restore of the control plane's virtual-space layout.
// The layout (switch -> position) is the only state that is expensive
// or nondeterministic to recompute (MDS + stochastic CVT); everything
// else (DT, relay paths, flow entries) derives from it and the physical
// topology. Pinning a snapshot makes deployments reproducible across
// controller restarts and lets experiments replay a published layout.
//
// Format (line-oriented text):
//   gred-snapshot v1
//   <count>
//   <switch-id> <x> <y>        (one line per participant, full
//                               precision round-trip via %.17g)
//   rewrites <count>           (optional trailing section: the active
//   <sw> <original> <replacement> <via>    range-extension rewrites,
//                               one per line — without it a restored
//                               network would silently lose every
//                               delegation and strand delegated items)
//
// Snapshots written before the rewrites section existed parse fine
// (the section is optional); new snapshots of extension-free networks
// omit it, so those files are byte-identical to the v1 output.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/controller.hpp"

namespace gred::core {

struct Snapshot {
  std::vector<topology::SwitchId> participants;
  std::vector<geometry::Point2D> positions;
  /// Active range-extension rewrites, as (switch, entry) pairs.
  std::vector<std::pair<topology::SwitchId, sden::RewriteEntry>> rewrites;
};

/// Captures the layout of an initialized controller plus the
/// network's installed range-extension rewrites, so a restore
/// reproduces the full forwarding state.
Result<Snapshot> capture_snapshot(const Controller& controller,
                                  const sden::SdenNetwork& net);

/// Serializes to the text format above.
std::string serialize_snapshot(const Snapshot& snapshot);

/// Parses the text format; validates structure but not the network
/// (restore does that).
Result<Snapshot> parse_snapshot(const std::string& text);

/// Re-initializes `controller` over `net` using the snapshot layout
/// instead of running M-position/C-regulation: rebuilds the multi-hop
/// DT and reinstalls all flow entries. The snapshot's participants must
/// exactly match the switches of `net` that have servers.
Status restore_snapshot(Controller& controller, sden::SdenNetwork& net,
                        const Snapshot& snapshot);

}  // namespace gred::core
