// One iteration of the compiled greedy walk, shared by
// SdenNetwork::route (whole-network plan) and the sharded runtime
// (per-shard plan subsets). Extracting the step keeps the two
// bit-identical by construction: there is exactly one implementation of
// the relay stage, the argmin, and the closer_to tie-break, and both
// callers feed it the same per-switch region layout (route_plan.hpp).
//
// The argmin is geometry's (geometry/argmin.hpp): AVX2 where CPUID
// reports it, the scalar loop elsewhere, the same winner on every
// input. SiteGrid::nearest runs the same functions over its cells'
// neighbourhood lists.
//
// The caller owns everything around the step: the hop bound, fault
// checks on a committed hop (which come AFTER the missing-link check,
// matching the historical order), path/cost accounting, and delivery.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/thread_annotations.hpp"
#include "geometry/argmin.hpp"
#include "sden/fault_state.hpp"
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

/// Whether candidate `a` of the region at `base` (k candidates) makes
/// strict progress toward the target: closer_to(target, a, self), a
/// strictly smaller distance, or an equal one and a lexicographically
/// smaller position.
inline bool plan_progresses(const double* base, std::size_t k,
                            const geometry::Argmin& a, double tx, double ty) {
  if (a.index == k) return false;
  const double px = base[0];
  const double py = base[1];
  const double sdx = px - tx;
  const double sdy = py - ty;
  const double self_d2 = sdx * sdx + sdy * sdy;
  const double bx = base[kPlanHeaderWords + a.index];
  const double by = base[kPlanHeaderWords + k + a.index];
  return a.d2 < self_d2 ||
         (a.d2 == self_d2 && (bx != px ? bx < px : by < py));
}

/// Under injected faults: the argmin over the candidates of the region
/// at `base` whose physical next hop from `cur` is up (not a crashed
/// switch, not a hard-down link). Scalar, out of line and fault-only,
/// so the healthy step keeps its vector body and one predicted branch.
geometry::Argmin argmin_live(const double* base, std::size_t k, double tx,
                             double ty, std::uint32_t cur,
                             const FaultState& faults);

/// Executes one iteration of the compiled walk: the virtual-link relay
/// stage (Section V-A) or one greedy decision (Algorithm 2) over the
/// plan's contiguous candidate columns. Mutates `pkt`'s virtual-link
/// fields exactly as the live pipeline would (clearing them at a link
/// endpoint, setting them when entering a multi-hop DT edge — the
/// latter happens even when the step then fails on a missing link,
/// matching SdenNetwork::route's historical order; a failed result
/// discards the scratch packet anyway), and keeps Packet::relay_link
/// on the relay entry of the switch the packet moves to. `plan` must
/// contain a region for `cur` — sharded callers check ownership first.
///
/// `faults` is null on a healthy network. Otherwise a greedy step
/// first tries the best candidate whose physical next hop is up; it
/// takes it when it makes strict progress toward the target (the
/// closer_to rule below), and falls back to the unchanged step when it
/// does not (Switch::process applies the same rule).
///
/// `vector_argmin` picks the argmin body; routers leave the default,
/// and BM_PlanWalk/simd:0 times the scalar loop through it. Always
/// inlined: a call per step costs the walk more than the duplicated
/// body costs its two callers.
[[gnu::always_inline]] GRED_HOT_PATH inline PlanStep plan_step(
    const RoutePlan& plan, std::uint32_t cur, Packet& pkt,
    const FaultState* faults, bool vector_argmin = geometry::kAvx2Argmin) {
  const double tx = pkt.target.x;
  const double ty = pkt.target.y;

  // Stage 1: virtual-link relay. While d.relay != null and we are not
  // the link endpoint, the packet moves along pre-installed relay
  // tuples without greedy logic: the entry it carries is this switch's
  // entry toward the link's destination.
  if (pkt.on_virtual_link()) {
    if (pkt.vlink_dest == cur) {
      pkt.clear_virtual_link();
    } else {
      if (pkt.relay_link == kNoRelayLink) {
        return {PlanStep::Kind::kNoRelay, kNoPlanSwitch, 0.0};
      }
      const PlanRelay& relay = plan.relays[pkt.relay_link];
      if (std::isnan(relay.weight)) {
        return {PlanStep::Kind::kMissingLink, relay.succ, 0.0};
      }
      pkt.relay_link = relay.next;
      return {PlanStep::Kind::kHop, relay.succ, relay.weight};
    }
  }

  const double* const base = plan.hot.data() + plan.offset[cur];
  const std::uint32_t flags = plan_lo(base[3]);
  if ((flags & kPlanFlagDt) == 0) {
    return {PlanStep::Kind::kNonDtTransit, kNoPlanSwitch, 0.0};
  }

  // Algorithm 2: one pass over the contiguous candidate columns under
  // the paper's total order (squared distance, ties by lex position)
  // — same unique minimizer as Switch::process's closer_to scan. The
  // compile step sorted the columns by lex position, so the FIRST
  // index achieving the minimum distance is the lex-smallest tie
  // winner, and a strict-less argmin with no rescan is exact.
  const std::size_t k = plan_hi(base[2]);
  const double* const xs = base + kPlanHeaderWords;
  const double* const ys = xs + k;
  geometry::Argmin best =
      vector_argmin ? geometry::argmin_avx2(xs, ys, k, tx, ty)
                    : geometry::argmin_scalar(xs, ys, k, tx, ty);
  if (faults != nullptr) {
    const geometry::Argmin live = argmin_live(base, k, tx, ty, cur, *faults);
    if (plan_progresses(base, k, live, tx, ty)) best = live;
  }
  if (!plan_progresses(base, k, best, tx, ty)) {
    // No neighbor is closer: this switch owns the data.
    return {PlanStep::Kind::kDeliver, cur, 0.0};
  }

  const double* const acts = ys + k;
  const double act = acts[best.index];         // packed action word
  const double weight = acts[k + best.index];  // link-weight column
  const std::uint32_t vlink_dest = plan_lo(act);
  if (vlink_dest != kNoPlanSwitch) {
    // Enter the virtual link toward the multi-hop DT neighbor, at the
    // first hop's relay entry.
    pkt.vlink_dest = vlink_dest;
    pkt.vlink_sour = cur;
    pkt.relay_link = plan_lo(acts[2 * k + best.index]);
  }
  if (std::isnan(weight)) {
    return {PlanStep::Kind::kMissingLink, plan_hi(act), 0.0};
  }
  return {PlanStep::Kind::kHop, plan_hi(act), weight};
}

}  // namespace gred::sden
