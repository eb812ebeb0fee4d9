#include "crypto/sha256.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace gred::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRoundConst[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// CPUID: SHA extensions (leaf 7, EBX bit 29), plus SSSE3 (leaf 1, ECX
// bit 9) and SSE4.1 (ECX bit 19) for the byte shuffles and blends.
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if (((ecx >> 9) & 1u) == 0 || ((ecx >> 19) & 1u) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ((ebx >> 29) & 1u) != 0;
}

const __m128i* as_m128(const void* p) {
  return static_cast<const __m128i*>(p);
}

// The block function on the SHA extensions; the same result as
// Sha256::process_block_scalar for every state and block. The state
// lives in two registers as ABEF and CDGH; SHA256RNDS2 runs two rounds,
// SHA256MSG1/MSG2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* block) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0b, 0x0405060700010203);

  // Lanes are named high to low: DCBA is state[0..3] as loaded.
  __m128i tmp = _mm_loadu_si128(as_m128(state));         // DCBA
  __m128i state1 = _mm_loadu_si128(as_m128(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                    // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);              // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);      // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);           // CDGH
  const __m128i abef = state0;
  const __m128i cdgh = state1;

  // m0 holds the schedule words W[4g..4g+3] of round group g; m1..m3
  // hold the next groups, or the older groups they are derived from.
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(as_m128(block)), kByteSwap);
  __m128i m1 =
      _mm_shuffle_epi8(_mm_loadu_si128(as_m128(block + 16)), kByteSwap);
  __m128i m2 =
      _mm_shuffle_epi8(_mm_loadu_si128(as_m128(block + 32)), kByteSwap);
  __m128i m3 =
      _mm_shuffle_epi8(_mm_loadu_si128(as_m128(block + 48)), kByteSwap);
  for (int g = 0; g < 16; ++g) {
    const __m128i wk =
        _mm_add_epi32(m0, _mm_loadu_si128(as_m128(kRoundConst + 4 * g)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
    state0 = _mm_sha256rnds2_epu32(state0, state1,
                                   _mm_shuffle_epi32(wk, 0x0E));
    // Group g+1: W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
    // m1 holds MSG1's s0(W[t-15]) + W[t-16], W[t-7] spans m3 and m0,
    // and MSG2 adds s1(W[t-2]) from m0.
    if (g >= 3 && g < 15) {
      m1 = _mm_sha256msg2_epu32(
          _mm_add_epi32(m1, _mm_alignr_epi8(m0, m3, 4)), m0);
    }
    // MSG1's partial sums for group g+3, from groups g-1 (m3) and g.
    if (g >= 1 && g < 13) m3 = _mm_sha256msg1_epu32(m3, m0);
    const __m128i next = m1;
    m1 = m2;
    m2 = m3;
    m3 = m0;
    m0 = next;
  }

  state0 = _mm_add_epi32(state0, abef);
  state1 = _mm_add_epi32(state1, cdgh);
  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else

constexpr bool cpu_has_sha_ni() { return false; }

#endif

// Which block function compresses: chosen once, during static
// initialisation. A plain flag, not a function pointer, ifunc or
// function-local static, so both calls stay direct and the hot-path
// checker can follow them (DESIGN.md §13); a read before initialisation
// sees false and takes the scalar code, which gives the same digest.
const bool kShaNi = cpu_has_sha_ni();

}  // namespace

void Sha256::reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
#if defined(__x86_64__)
  if (kShaNi && !scalar_) {
    compress_sha_ni(state_, block);
    return;
  }
#endif
  process_block_scalar(block);
}

void Sha256::process_block_scalar(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t(block[4 * i]) << 24) |
           (std::uint32_t(block[4 * i + 1]) << 16) |
           (std::uint32_t(block[4 * i + 2]) << 8) |
           std::uint32_t(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRoundConst[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;

  // Append 0x80, then zeros, then the 64-bit big-endian length.
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const std::size_t rem = (buffer_len_ + 1) % 64;
  const std::size_t zeros = rem <= 56 ? 56 - rem : 120 - rem;
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(pad, pad_len);
  assert(buffer_len_ == 0);

  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::string_view data) { return sha256(data.data(), data.size()); }

Digest sha256(const void* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest sha256_scalar(const void* data, std::size_t len) {
  Sha256 h;
  h.scalar_ = true;
  h.update(data, len);
  return h.finish();
}

bool sha256_hardware() { return kShaNi; }

}  // namespace gred::crypto
