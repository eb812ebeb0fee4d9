// Reference data plane: the routing oracle. Routes a packet by walking
// the LIVE switch pipeline — Switch::process per hop (the relay stage,
// Algorithm 2 as a sequential closer_to scan, the server stage), graph
// lookups for link validation, a fresh RouteResult per packet — and
// ends in the same SdenNetwork::deliver as the fast path. It shares no
// decision code with the compiled plan (plan_walk.hpp), so the
// differential tests hold the two bit-identical (statuses and messages
// included, via the shared route_errors constructors), and
// bench_data_plane reports the speedup of the fast path over it.
#pragma once

#include "sden/network.hpp"
#include "sden/route_errors.hpp"

namespace gred::sden {

/// Routes `pkt` from `ingress` over the live pipeline. Storage side
/// effects are applied through the same ServerNode objects the fast
/// path uses, so interleaving the two on retrievals is safe. Consults
/// the network's injected FaultState exactly like the fast path does,
/// so the differential holds under faults too.
inline RouteResult reference_route(SdenNetwork& net, Packet pkt,
                                   SwitchId ingress) {
  RouteResult result;
  if (ingress >= net.switch_count()) {
    result.status = route_errors::bad_ingress();
    return result;
  }

  const FaultState* const faults =
      (net.fault_state() != nullptr && net.fault_state()->any())
          ? net.fault_state()
          : nullptr;
  const std::uint64_t salt =
      faults != nullptr ? fault_packet_salt(pkt) : 0;
  if (faults != nullptr && faults->switch_is_down(ingress)) {
    result.fail(route_errors::ingress_down(ingress));
    return result;
  }

  const graph::Graph& links = net.description().switches();
  SwitchId cur = ingress;
  result.switch_path.push_back(cur);

  const std::size_t max_hops = net.max_route_hops();
  for (std::size_t step = 0; step < max_hops; ++step) {
    // Read-only inspection: const_switch_at keeps the compiled plan
    // fresh (the mutable switch_at() would count a change every hop).
    const Decision decision = net.const_switch_at(cur).process(pkt, faults);

    if (decision.kind == Decision::Kind::kDrop) {
      result.fail(route_errors::pipeline_drop(cur, decision.drop_code,
                                              decision.drop_reason));
      return result;
    }

    if (decision.kind == Decision::Kind::kDeliver) {
      Status delivered = net.deliver(decision.targets, pkt, cur, result);
      if (!delivered.ok()) result.fail(std::move(delivered));
      return result;
    }

    const graph::EdgeTo* edge = links.find_edge(cur, decision.next_hop);
    if (edge == nullptr) {
      result.fail(route_errors::missing_link(cur, decision.next_hop));
      return result;
    }
    if (faults != nullptr) {
      Status hop =
          route_errors::check_traversal(*faults, cur, decision.next_hop, salt);
      if (!hop.ok()) {
        result.fail(std::move(hop));
        return result;
      }
    }
    result.path_cost += edge->weight;
    cur = decision.next_hop;
    result.switch_path.push_back(cur);
  }
  result.fail(route_errors::hop_bound());
  return result;
}

}  // namespace gred::sden
