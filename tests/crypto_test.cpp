// SHA-256 against the FIPS 180-4 / NIST CAVS vectors, the SHA-NI block
// function against the scalar oracle, hex codec, and the paper's
// data-key derivation (Section III).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/data_key.hpp"
#include "crypto/hex.hpp"
#include "crypto/sha256.hpp"

namespace gred::crypto {
namespace {

// Every known answer is checked on both block functions: `sha256`
// (SHA-NI where the CPU has it) and the scalar oracle.
void expect_digest(std::string_view msg, std::string_view hex) {
  EXPECT_EQ(to_hex(sha256(msg)), hex);
  EXPECT_EQ(to_hex(sha256_scalar(msg.data(), msg.size())), hex)
      << "scalar oracle";
}

// ---------- SHA-256 known-answer tests ----------

TEST(Sha256Test, EmptyString) {
  expect_digest(
      "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  expect_digest(
      "abc",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  expect_digest(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlockMessage) {
  expect_digest(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  const char* const want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()), want);
  expect_digest(std::string(1000000, 'a'), want);
}

TEST(Sha256Test, SingleByte) {
  // NIST CAVS: one byte 0xbd.
  expect_digest(
      "\xbd",
      "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // Length 55 forces padding into the same block, 56 into the next,
  // 64 an exact block. All must round-trip against the streaming API.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const std::string msg(len, 'x');
    const Digest one_shot = sha256(msg);
    Sha256 h;
    for (char c : msg) h.update(&c, 1);  // byte-at-a-time
    EXPECT_EQ(h.finish(), one_shot) << "len=" << len;
  }
}

TEST(Sha256Test, SplitUpdateEquivalence) {
  Rng rng(2024);
  std::string msg(517, '\0');
  for (char& c : msg) c = static_cast<char>(rng.next_below(256));
  const Digest whole = sha256(msg);
  for (std::size_t cut : {1u, 63u, 64u, 65u, 300u, 516u}) {
    Sha256 h;
    h.update(msg.substr(0, cut));
    h.update(msg.substr(cut));
    EXPECT_EQ(h.finish(), whole) << "cut=" << cut;
  }
}

TEST(Sha256Test, ResetReusesObject) {
  Sha256 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256("abc"), sha256("abd"));
}

// The SHA-NI block function against the scalar oracle: every length
// 0..300 and random lengths up to 8 KiB, at start offsets 0..15, one
// shot and streamed in random chunks. Without SHA-NI both sides run the
// scalar code, so the comparison would be vacuous and the test skips.
TEST(Sha256Test, HardwareMatchesScalarOracle) {
#if defined(__x86_64__) && !defined(__clang__)
  // The dispatcher must pick SHA-NI wherever the CPU has it; otherwise
  // this test would skip on exactly the hosts it is for. (Clang before
  // 18 rejects the "sha" feature string, so only GCC builds check.)
  EXPECT_EQ(sha256_hardware(), __builtin_cpu_supports("sha") &&
                                   __builtin_cpu_supports("ssse3") &&
                                   __builtin_cpu_supports("sse4.1"));
#endif
  if (!sha256_hardware()) {
    GTEST_SKIP() << "CPU has no SHA-NI: sha256 ran the scalar block "
                    "function, the oracle itself";
  }
  constexpr std::size_t kMaxLen = 8192;
  Rng rng(20261018);
  std::vector<std::uint8_t> buf(kMaxLen + 16);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());

  std::size_t cases = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](std::size_t offset, std::size_t len) {
    const std::uint8_t* data = buf.data() + offset;
    const Digest want = sha256_scalar(data, len);
    Sha256 streamed;
    for (std::size_t done = 0; done < len;) {
      const std::size_t chunk =
          std::min<std::size_t>(len - done, 1 + rng.next_below(150));
      streamed.update(data + done, chunk);
      done += chunk;
    }
    const bool one_shot_ok = sha256(data, len) == want;
    const bool streamed_ok = streamed.finish() == want;
    ++cases;
    if (one_shot_ok && streamed_ok) return;
    ++mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = (one_shot_ok ? "streamed" : "one-shot") +
                       std::string(" len=") + std::to_string(len) +
                       " offset=" + std::to_string(offset);
    }
  };
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t offset = 0; offset < 16; ++offset) check(offset, len);
  }
  for (int i = 0; i < 400; ++i) {
    check(rng.next_below(16), rng.next_below(kMaxLen + 1));
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << "; first: "
                            << first_mismatch;
}

// ---------- hex ----------

TEST(HexTest, RoundTrip) {
  const std::uint8_t data[] = {0x00, 0x01, 0xab, 0xff};
  const std::string hex = to_hex(data, 4);
  EXPECT_EQ(hex, "0001abff");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 4u);
  EXPECT_EQ(std::memcmp(back.value().data(), data, 4), 0);
}

TEST(HexTest, UppercaseAccepted) {
  auto r = from_hex("ABCDEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_hex(r.value().data(), r.value().size()), "abcdef");
}

TEST(HexTest, OddLengthRejected) {
  EXPECT_FALSE(from_hex("abc").ok());
}

TEST(HexTest, NonHexRejected) {
  EXPECT_FALSE(from_hex("zz").ok());
}

TEST(HexTest, EmptyOk) {
  auto r = from_hex("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

// ---------- DataKey (Section III derivation) ----------

TEST(DataKeyTest, PositionInUnitSquare) {
  for (int i = 0; i < 1000; ++i) {
    const DataKey key("item-" + std::to_string(i));
    const SpacePoint p = key.position();
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(DataKeyTest, PositionMatchesManualDerivation) {
  // Independently derive from the digest: last 8 bytes, big-endian,
  // each 4-byte half scaled by 2^32 - 1.
  const DataKey key("manual-check");
  const Digest d = key.digest();
  std::uint32_t xi = 0, yi = 0;
  for (int i = 0; i < 4; ++i) {
    xi = (xi << 8) | d[24 + i];
    yi = (yi << 8) | d[28 + i];
  }
  EXPECT_DOUBLE_EQ(key.position().x, xi / 4294967295.0);
  EXPECT_DOUBLE_EQ(key.position().y, yi / 4294967295.0);
}

TEST(DataKeyTest, DeterministicForSameId) {
  const DataKey a("same"), b("same");
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_DOUBLE_EQ(a.position().x, b.position().x);
  EXPECT_EQ(a.mod(17), b.mod(17));
}

TEST(DataKeyTest, DigestConstructorAgrees) {
  const DataKey a("via-string");
  const DataKey b(a.digest());
  EXPECT_DOUBLE_EQ(a.position().x, b.position().x);
  EXPECT_DOUBLE_EQ(a.position().y, b.position().y);
  EXPECT_EQ(a.prefix64(), b.prefix64());
}

TEST(DataKeyTest, ModIsExactResidueOfFullDigest) {
  // Verify the 256-bit Horner reduction against small moduli by an
  // independent byte-by-byte reduction.
  for (const char* id : {"a", "b", "xyz", "data-123"}) {
    const DataKey key(id);
    for (std::uint64_t s : {2ull, 3ull, 7ull, 10ull, 12ull, 97ull}) {
      std::uint64_t expect = 0;
      for (std::uint8_t byte : key.digest()) {
        expect = (expect * 256 + byte) % s;
      }
      EXPECT_EQ(key.mod(s), expect) << id << " mod " << s;
    }
  }
}

TEST(DataKeyTest, ModZeroIsZero) {
  EXPECT_EQ(DataKey("x").mod(0), 0u);
}

TEST(DataKeyTest, ModOneIsZero) {
  EXPECT_EQ(DataKey("x").mod(1), 0u);
}

TEST(DataKeyTest, ModUniformity) {
  // H(d) mod s should spread evenly (Section V-B's balance argument).
  const std::uint64_t s = 10;
  std::vector<int> counts(s, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[DataKey("load-item-" + std::to_string(i)).mod(s)];
  }
  const double expected = static_cast<double>(n) / s;
  for (std::uint64_t r = 0; r < s; ++r) {
    EXPECT_NEAR(counts[r], expected, expected * 0.1) << "residue " << r;
  }
}

TEST(DataKeyTest, PositionUniformity) {
  // Quadrant chi-square on hashed positions.
  int quad[4] = {0, 0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const SpacePoint p = DataKey("pos-item-" + std::to_string(i)).position();
    quad[(p.x >= 0.5 ? 1 : 0) + (p.y >= 0.5 ? 2 : 0)]++;
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_NEAR(quad[q], n / 4.0, n / 4.0 * 0.1);
  }
}

TEST(ReplicaIdentifierTest, Format) {
  EXPECT_EQ(replica_identifier("video", 0), "video#0");
  EXPECT_EQ(replica_identifier("video", 12), "video#12");
}

TEST(ReplicaIdentifierTest, CopiesHashToDistinctPositions) {
  std::set<std::pair<double, double>> positions;
  for (unsigned c = 0; c < 8; ++c) {
    const SpacePoint p = DataKey(replica_identifier("obj", c)).position();
    positions.insert({p.x, p.y});
  }
  EXPECT_EQ(positions.size(), 8u);
}

}  // namespace
}  // namespace gred::crypto
