// SHA-256 (FIPS 180-4), implemented from scratch — the paper hashes every
// data identifier with SHA-256 to derive its position in the virtual
// space (Section III). Two block functions share one padding and
// streaming implementation: the x86 SHA extensions (SHA-NI) where CPUID
// reports them, chosen once at static initialisation, and portable
// scalar code everywhere else. The scalar code is also the oracle
// (`sha256_scalar`). Validated against the FIPS/NIST test vectors and
// the two paths against each other in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gred::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.update("abc");
///   Digest d = h.finish();
///
/// `finish()` may be called once; the object can then be `reset()`.
class Sha256 {
 public:
  Sha256() { reset(); }

  /// Restores the initial state; discards all buffered input.
  void reset();

  /// Absorbs `len` bytes.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Pads, finalizes, and returns the digest.
  Digest finish();

 private:
  friend Digest sha256_scalar(const void* data, std::size_t len);

  /// Compresses one block with SHA-NI where available, else scalar.
  void process_block(const std::uint8_t* block);
  void process_block_scalar(const std::uint8_t* block);

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;       // bytes absorbed so far
  std::uint8_t buffer_[64];           // partial block
  std::size_t buffer_len_ = 0;
  bool scalar_ = false;               // sha256_scalar: never SHA-NI
};

/// One-shot convenience.
Digest sha256(std::string_view data);
Digest sha256(const void* data, std::size_t len);

/// SHA-256 through the scalar block function whatever the CPU: the
/// same padding and streaming code as `sha256`, so it is the test
/// oracle for the SHA-NI block function.
Digest sha256_scalar(const void* data, std::size_t len);

/// True when `sha256` and `Sha256` compress with SHA-NI on this CPU.
bool sha256_hardware();

}  // namespace gred::crypto
