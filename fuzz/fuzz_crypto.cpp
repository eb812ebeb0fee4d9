// Fuzz harness for the crypto stack (sha256 / hex / data_key):
//   * from_hex is total — typed error or exact to_hex inverse;
//   * one-shot and incremental SHA-256, for any chunking, equal the
//     scalar oracle (`sha256_scalar`), so on a CPU with SHA-NI every
//     input runs both block functions;
//   * DataKey's derived position always lands in the unit square and
//     H(d) mod s always respects the modulus.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>

#include "crypto/data_key.hpp"
#include "crypto/hex.hpp"
#include "crypto/sha256.hpp"
#include "fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // --- hex decode totality + inversion ---
  auto decoded = gred::crypto::from_hex(text);
  if (decoded.ok()) {
    std::string lower = text;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    });
    FUZZ_ASSERT(gred::crypto::to_hex(decoded.value().data(),
                                     decoded.value().size()) == lower,
                "to_hex(from_hex(x)) != lowercase(x)");
  } else {
    FUZZ_ASSERT(decoded.error().code == gred::ErrorCode::kInvalidArgument,
                "from_hex must fail with kInvalidArgument");
    FUZZ_ASSERT(size % 2 != 0 ||
                    !std::all_of(text.begin(), text.end(),
                                 [](unsigned char c) {
                                   return std::isxdigit(c) != 0;
                                 }),
                "from_hex rejected a valid even-length hex string");
  }

  // --- raw bytes always hex round-trip ---
  const std::string hexed = gred::crypto::to_hex(data, size);
  auto back = gred::crypto::from_hex(hexed);
  FUZZ_ASSERT(back.ok() && back.value().size() == size &&
                  std::equal(back.value().begin(), back.value().end(), data),
              "from_hex(to_hex(bytes)) round trip failed");

  // --- one-shot and incremental SHA-256 vs the scalar oracle ---
  const gred::crypto::Digest oracle = gred::crypto::sha256_scalar(data, size);
  FUZZ_ASSERT(gred::crypto::sha256(data, size) == oracle,
              "one-shot SHA-256 differs from the scalar oracle");
  gred::crypto::Sha256 h;
  const std::size_t cut1 = size > 0 ? size / 3 : 0;
  const std::size_t cut2 = size > 0 ? size - size / 5 : 0;
  h.update(data, cut1);
  h.update(data + cut1, cut2 - cut1);
  h.update(data + cut2, size - cut2);
  FUZZ_ASSERT(h.finish() == oracle,
              "chunked SHA-256 differs from the scalar oracle");

  // --- DataKey derivations stay in range and deterministic ---
  const gred::crypto::DataKey key(text);
  const gred::crypto::SpacePoint pos = key.position();
  FUZZ_ASSERT(pos.x >= 0.0 && pos.x <= 1.0 && pos.y >= 0.0 && pos.y <= 1.0,
              "DataKey position left the unit square");
  for (std::uint64_t s : {1ull, 3ull, 7ull, 1000ull}) {
    FUZZ_ASSERT(key.mod(s) < s, "H(d) mod s out of range");
  }
  FUZZ_ASSERT(gred::crypto::DataKey(text).digest() == key.digest(),
              "DataKey is not deterministic");
  FUZZ_ASSERT(gred::crypto::replica_identifier(text, 2) ==
                  gred::crypto::replica_identifier(text, 2),
              "replica_identifier is not deterministic");
  return 0;
}
