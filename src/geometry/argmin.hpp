// The argmin over candidate position columns: the first index whose
// squared distance to a target is minimal. Two callers scan columns
// sorted lexicographically by position, so that first minimum is the
// paper's tie-break winner (closer_to) with no rescan: the compiled
// greedy step (sden/plan_walk.hpp), over a switch's candidates, and
// SiteGrid::nearest, over a cell's neighbourhood list.
//
// The argmin runs in AVX2 where CPUID reports it (argmin_avx2, chosen
// once by the plain flag kAvx2Argmin) and in the scalar loop elsewhere;
// argmin_scalar is also the vector body's test oracle. Both round
// dx*dx, dy*dy and their sum separately, as squared_distance does — the
// vector body is compiled for AVX2 without FMA — so they pick the same
// winner on every input, near-ties included.
#pragma once

#include <cstddef>
#include <limits>

namespace gred::geometry {

/// Winner of the argmin over candidate columns: the first index whose
/// squared distance to the target is minimal, or `index == k` with
/// `d2 == +inf` when no candidate has a finite distance.
struct Argmin {
  std::size_t index = 0;
  double d2 = 0.0;
};

/// Candidates one pass of argmin_avx2 covers, and the words a caller
/// keeps after the last candidate of each column so that every address
/// the pass forms stays inside the caller's array.
inline constexpr std::size_t kArgminBlock = 12;

/// The scalar argmin: two independent strict-less accumulator chains
/// (branch-free minsd + cmov), merged with the smaller index winning
/// equal distances. The fallback where AVX2 is missing, and the oracle
/// of the vector body.
inline Argmin argmin_scalar(const double* xs, const double* ys, std::size_t k,
                            double tx, double ty) {
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
  return {(m1 < m0 || (m1 == m0 && b1 < b0)) ? b1 : b0, m1 < m0 ? m1 : m0};
}

#if defined(__x86_64__)
/// Whether callers run argmin_avx2: CPUID reports AVX2 and the OS saves
/// YMM state. Set once during static initialisation; a read before then
/// sees false and takes the scalar loop, which picks the same winner.
extern const bool kAvx2Argmin;

/// The argmin in AVX2, four candidates per instruction: passes of
/// kArgminBlock lanes, each branch-free, with masked loads, padding
/// lanes at +inf, and the first minimum found by one ctz over the
/// merged equality masks. Same result as argmin_scalar for every
/// input. The kArgminBlock words after `xs + k` and after `ys + k` must
/// lie in the caller's array (a RoutePlan's `hot` array and a
/// SiteGrid's lists pad their tails); masked-off lanes are never read.
Argmin argmin_avx2(const double* xs, const double* ys, std::size_t k,
                   double tx, double ty);
#else
inline constexpr bool kAvx2Argmin = false;
inline Argmin argmin_avx2(const double* xs, const double* ys, std::size_t k,
                          double tx, double ty) {
  return argmin_scalar(xs, ys, k, tx, ty);
}
#endif

}  // namespace gred::geometry
