#include "sden/plan_walk.hpp"

#include <limits>

namespace gred::sden {

geometry::Argmin argmin_live(const double* base, std::size_t k, double tx,
                             double ty, std::uint32_t cur,
                             const FaultState& faults) {
  const double* const xs = base + kPlanHeaderWords;
  const double* const ys = xs + k;
  const double* const acts = ys + k;
  geometry::Argmin best{k, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < k; ++i) {
    if (faults.hop_is_down(cur, plan_hi(acts[i]))) continue;
    const double dx = xs[i] - tx;
    const double dy = ys[i] - ty;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best.d2) best = {i, d2};
  }
  return best;
}

}  // namespace gred::sden
