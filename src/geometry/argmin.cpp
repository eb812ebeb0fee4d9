#include "geometry/argmin.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace gred::geometry {
namespace {

// XCR0, read with XGETBV (inline assembly: the intrinsic would need the
// xsave target).
std::uint64_t xcr0() {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

// CPUID: AVX2 (leaf 7, EBX bit 5), and an OS that saves YMM state:
// OSXSAVE (leaf 1, ECX bit 27) makes XGETBV available, and XCR0 must
// have both the SSE and the AVX state bits (1 and 2) set.
bool cpu_has_avx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if (((ecx >> 27) & 1u) == 0) return false;
  if ((xcr0() & 0x6u) != 0x6u) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ((ebx >> 5) & 1u) != 0;
}

// Squared distances of the four candidates from `lane0` on, of a block
// with `count` candidates: +inf on padding lanes (lane >= count), whose
// masked loads read nothing, and on NaN. The target is "avx2" alone: an
// "fma" in it lets the compiler fuse the product into the sum, which
// rounds once where the scalar loop rounds twice and can move the
// winner of a near-tie.
__attribute__((target("avx2"), always_inline)) inline __m256d lane_d2(
    const double* xs, const double* ys, long long lane0, __m256i count,
    __m256d tx, __m256d ty, __m256d inf) {
  const __m256i lanes = _mm256_setr_epi64x(lane0, lane0 + 1, lane0 + 2,
                                           lane0 + 3);
  const __m256i valid = _mm256_cmpgt_epi64(count, lanes);
  const __m256d dx = _mm256_sub_pd(_mm256_maskload_pd(xs + lane0, valid), tx);
  const __m256d dy = _mm256_sub_pd(_mm256_maskload_pd(ys + lane0, valid), ty);
  const __m256d d2 =
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
  // MINPD returns its second operand when either is NaN, so a NaN
  // distance becomes +inf and never wins, as in the scalar loop.
  return _mm256_blendv_pd(inf, _mm256_min_pd(d2, inf),
                          _mm256_castsi256_pd(valid));
}

// Bits of the lanes of `d` equal to `m`, shifted to their lane position.
__attribute__((target("avx2"), always_inline)) inline unsigned eq_bits(
    __m256d d, __m256d m, int shift) {
  return static_cast<unsigned>(
             _mm256_movemask_pd(_mm256_cmp_pd(d, m, _CMP_EQ_OQ)))
         << shift;
}

}  // namespace

const bool kAvx2Argmin = cpu_has_avx2();

__attribute__((target("avx2"))) Argmin argmin_avx2(const double* xs,
                                                   const double* ys,
                                                   std::size_t k, double tx,
                                                   double ty) {
  static_assert(kArgminBlock == 12, "the body below has three vectors");
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d vtx = _mm256_set1_pd(tx);
  const __m256d vty = _mm256_set1_pd(ty);
  Argmin best{k, std::numeric_limits<double>::infinity()};
  // One pass per block of kArgminBlock candidates. Measured on
  // perfbench's deployment (regions of up to 21 candidates, 11.7 on
  // average), three vectors and a second pass for larger regions walk
  // faster than a fixed six-vector body that needs no loop: the wider
  // body's longer reduction costs every step more than the trip-count
  // branch costs the regions that take two passes.
  for (std::size_t first = 0; first < k; first += kArgminBlock) {
    const double* const bx = xs + first;
    const double* const by = ys + first;
    const __m256i count =
        _mm256_set1_epi64x(static_cast<long long>(k - first));
    const __m256d d0 = lane_d2(bx, by, 0, count, vtx, vty, inf);
    const __m256d d1 = lane_d2(bx, by, 4, count, vtx, vty, inf);
    const __m256d d2 = lane_d2(bx, by, 8, count, vtx, vty, inf);
    // The block's minimum, broadcast to every lane.
    __m256d m = _mm256_min_pd(_mm256_min_pd(d0, d1), d2);
    m = _mm256_min_pd(m, _mm256_permute2f128_pd(m, m, 1));
    m = _mm256_min_pd(m, _mm256_permute_pd(m, 0x5));
    // The first lane holding it: the lex-smallest tie winner.
    const unsigned eq =
        eq_bits(d0, m, 0) | eq_bits(d1, m, 4) | eq_bits(d2, m, 8);
    const double block_min = _mm256_cvtsd_f64(m);
    // Strict less: an earlier block keeps a tie, and a block without a
    // finite distance changes nothing.
    if (block_min < best.d2) {
      best = {first + static_cast<std::size_t>(std::countr_zero(eq)),
              block_min};
    }
  }
  return best;
}

}  // namespace gred::geometry

#endif
