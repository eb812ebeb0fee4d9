// Routing-failure status constructors shared by the compiled fast path
// (SdenNetwork::route and the sharded runtime), the reference router
// (the oracle), and SdenNetwork::deliver. Centralizing the (code,
// message) pairs is what keeps the fast-path/oracle differential
// bit-identical on FAILED routes: both sides build the same classified
// status for the same drop.
//
// Failure-path semantics of RouteResult (enforced by every router):
//   * status holds one of the classified codes below,
//   * switch_path keeps the partial path walked up to the drop,
//   * path_cost keeps the cost of that partial path,
//   * found == false, delivered_to empty, responder == kNoServer,
//     payload empty — a failed route never reports delivery state.
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "sden/fault_state.hpp"
#include "sden/packet.hpp"

namespace gred::sden::route_errors {

/// Flow-table miss while relaying over a virtual link.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status no_relay(SwitchId at) {
  return Status(ErrorCode::kNoRoute,
                "packet dropped at switch " + std::to_string(at) +
                    ": no relay entry for virtual-link destination");
}

/// Greedy packet reached a switch that is not a DT participant.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status non_dt_transit(SwitchId at) {
  return Status(ErrorCode::kNoRoute,
                "packet dropped at switch " + std::to_string(at) +
                    ": greedy packet at non-DT transit switch");
}

/// Terminal switch owns the data but has no attached servers.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status no_servers(SwitchId at) {
  return Status(ErrorCode::kNoRoute,
                "packet dropped at switch " + std::to_string(at) +
                    ": terminal switch has no attached servers");
}

/// A flow entry points over a link that does not exist in the topology.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status missing_link(SwitchId from, SwitchId to) {
  return Status(ErrorCode::kLinkDown,
                "switch " + std::to_string(from) +
                    " forwarded over a non-existent link to switch " +
                    std::to_string(to));
}

/// Hop bound exceeded: transient loop (stale tables) or table bug.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status hop_bound() {
  return Status(ErrorCode::kRoutingLoop, "routing loop: hop bound exceeded");
}

/// A delivery target names a server the network does not have.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status unknown_server() {
  return Status(ErrorCode::kInternal, "delivery to unknown server");
}

/// Range-extension handoff rides a link missing from the topology.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status handoff_missing_link() {
  return Status(ErrorCode::kLinkDown,
                "range-extension handoff over non-existent link");
}

/// A drop decision from the live pipeline, classified by the decision's
/// drop_code with the pipeline's reason text.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status pipeline_drop(SwitchId at, ErrorCode code,
                            const char* reason) {
  return Status(code, "packet dropped at switch " + std::to_string(at) +
                          ": " + (reason != nullptr ? reason : "unknown"));
}

/// Injection at a switch id outside the network. Shared by every
/// router front-end (compiled, sharded, reference) so the terminal
/// status stays bit-identical across them.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status bad_ingress() {
  return Status(ErrorCode::kOutOfRange,
                "inject: ingress switch out of range");
}

/// The packet entered the network at a crashed switch.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status ingress_down(SwitchId at) {
  return Status(ErrorCode::kLinkDown,
                "ingress switch " + std::to_string(at) + " is down");
}

/// Forwarding toward a crashed switch black-holes the packet.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status next_switch_down(SwitchId at, SwitchId next) {
  return Status(ErrorCode::kLinkDown,
                "packet dropped at switch " + std::to_string(at) +
                    ": next switch " + std::to_string(next) + " is down");
}

/// The link itself is down or dropped this packet probabilistically.
// cold: failure-path status construction builds a std::string
// message; drops are the exception, not the steady state.
GRED_COLD_PATH inline Status link_faulted(SwitchId at, SwitchId next, bool hard_down) {
  return Status(ErrorCode::kLinkDown,
                "packet dropped at switch " + std::to_string(at) +
                    ": link to switch " + std::to_string(next) +
                    (hard_down ? " is down" : " dropped the packet"));
}

/// Checks the injected fault state for one physical traversal
/// `from -> to`. Returns Ok when the traversal survives. Callers guard
/// with `faults != nullptr` so the healthy steady state pays nothing.
inline Status check_traversal(const FaultState& faults, SwitchId from,
                              SwitchId to, std::uint64_t packet_salt) {
  if (faults.switch_is_down(to)) return next_switch_down(from, to);
  const double p = faults.link_drop_probability(from, to);
  if (p > 0.0 && faults.drops(p, from, to, packet_salt)) {
    return link_faulted(from, to, p >= 1.0);
  }
  return Status::Ok();
}

}  // namespace gred::sden::route_errors
