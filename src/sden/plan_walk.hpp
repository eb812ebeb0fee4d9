// One iteration of the compiled greedy walk, shared by
// SdenNetwork::route (whole-network plan) and the sharded runtime
// (per-shard plan subsets). Extracting the step keeps the two
// bit-identical by construction: there is exactly one implementation of
// the relay stage, the branch-free argmin, and the closer_to tie-break,
// and both callers feed it the same per-switch region layout
// (route_plan.hpp).
//
// The caller owns everything around the step: the hop bound, fault
// checks on a committed hop (which come AFTER the missing-link check,
// matching the historical order), path/cost accounting, and delivery.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/thread_annotations.hpp"
#include "sden/packet.hpp"
#include "sden/route_plan.hpp"

namespace gred::sden {

/// Outcome of one walk iteration at switch `cur`.
struct PlanStep {
  enum class Kind : std::uint8_t {
    kHop,           ///< commit the hop to `next` with `weight`
    kDeliver,       ///< `cur` owns the data: deliver here
    kNoRelay,       ///< relay-table miss (route_errors::no_relay)
    kNonDtTransit,  ///< greedy packet at a non-DT switch
    kMissingLink,   ///< flow entry over a missing link toward `next`
  };
  Kind kind = Kind::kDeliver;
  std::uint32_t next = kNoPlanSwitch;
  double weight = 0.0;
};

/// Executes one iteration of the compiled walk: the virtual-link relay
/// stage (Section V-A) or one greedy decision (Algorithm 2) over the
/// plan's contiguous candidate columns. Mutates `pkt`'s virtual-link
/// fields exactly as the live pipeline would (clearing them at a link
/// endpoint, setting them when entering a multi-hop DT edge — the
/// latter happens even when the step then fails on a missing link,
/// matching SdenNetwork::route's historical order; a failed result
/// discards the scratch packet anyway). `plan` must contain a region
/// for `cur` — sharded callers check ownership first.
GRED_HOT_PATH inline PlanStep plan_step(const RoutePlan& plan,
                                        std::uint32_t cur, Packet& pkt) {
  const double* const hot = plan.hot.data();
  const double tx = pkt.target.x;
  const double ty = pkt.target.y;

  // Stage 1: virtual-link relay. While d.relay != null and we are not
  // the link endpoint, the packet moves along pre-installed relay
  // tuples without greedy logic.
  if (pkt.on_virtual_link()) {
    if (pkt.vlink_dest == cur) {
      pkt.clear_virtual_link();
    } else {
      const PlanRelay* relay = plan.relays.find(
          Key2{cur, static_cast<std::uint64_t>(pkt.vlink_dest)});
      if (relay == nullptr) {
        return {PlanStep::Kind::kNoRelay, kNoPlanSwitch, 0.0};
      }
      if (std::isnan(relay->weight)) {
        return {PlanStep::Kind::kMissingLink, relay->succ, 0.0};
      }
      return {PlanStep::Kind::kHop, relay->succ, relay->weight};
    }
  }

  const double* const base = hot + plan.offset[cur];
  const std::uint32_t flags = plan_lo(base[3]);
  if ((flags & kPlanFlagDt) == 0) {
    return {PlanStep::Kind::kNonDtTransit, kNoPlanSwitch, 0.0};
  }

  // Algorithm 2: one pass over the contiguous candidate columns under
  // the paper's total order (squared distance, ties by lex position)
  // — same unique minimizer as Switch::process's closer_to scan. The
  // compile step sorted the columns by lex position, so the FIRST
  // index achieving the minimum distance is the lex-smallest tie
  // winner, and a strict-less argmin (two independent accumulator
  // chains, branch-free minsd + cmov, no rescan) is exact.
  const std::size_t k = plan_hi(base[2]);
  const double* const xs = base + kPlanHeaderWords;
  const double* const ys = xs + k;
  double m0 = std::numeric_limits<double>::infinity();
  double m1 = m0;
  std::size_t b0 = k;
  std::size_t b1 = k;
  std::size_t i = 0;
  for (; i + 1 < k; i += 2) {
    const double dx0 = xs[i] - tx;
    const double dy0 = ys[i] - ty;
    const double d0 = dx0 * dx0 + dy0 * dy0;
    const double dx1 = xs[i + 1] - tx;
    const double dy1 = ys[i + 1] - ty;
    const double d1 = dx1 * dx1 + dy1 * dy1;
    b0 = d0 < m0 ? i : b0;
    m0 = d0 < m0 ? d0 : m0;
    b1 = d1 < m1 ? i + 1 : b1;
    m1 = d1 < m1 ? d1 : m1;
  }
  if (i < k) {
    const double dx = xs[i] - tx;
    const double dy = ys[i] - ty;
    const double d2 = dx * dx + dy * dy;
    b0 = d2 < m0 ? i : b0;
    m0 = d2 < m0 ? d2 : m0;
  }
  // Merge the even/odd chains; on equal distance the smaller index
  // (lex-smaller position) wins.
  const double best_d2 = m1 < m0 ? m1 : m0;
  const std::size_t best = (m1 < m0 || (m1 == m0 && b1 < b0)) ? b1 : b0;

  if (best != k) {
    // closer_to(target, best, self): strictly smaller distance, or
    // equal distance and lexicographically smaller position.
    const double px = base[0];
    const double py = base[1];
    const double bx = xs[best];
    const double by = ys[best];
    const double sdx = px - tx;
    const double sdy = py - ty;
    const double self_d2 = sdx * sdx + sdy * sdy;
    if (best_d2 < self_d2 ||
        (best_d2 == self_d2 && (bx != px ? bx < px : by < py))) {
      const double act = ys[k + best];         // packed action word
      const double weight = ys[2 * k + best];  // link-weight column
      const std::uint32_t vlink_dest = plan_lo(act);
      if (vlink_dest != kNoPlanSwitch) {
        // Enter the virtual link toward the multi-hop DT neighbor.
        pkt.vlink_dest = vlink_dest;
        pkt.vlink_sour = cur;
      }
      if (std::isnan(weight)) {
        return {PlanStep::Kind::kMissingLink, plan_hi(act), 0.0};
      }
      return {PlanStep::Kind::kHop, plan_hi(act), weight};
    }
  }

  // No neighbor is closer: this switch owns the data.
  return {PlanStep::Kind::kDeliver, cur, 0.0};
}

}  // namespace gred::sden
