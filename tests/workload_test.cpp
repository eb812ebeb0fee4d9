// Workload substrate: Zipf sampling and identifier generation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "workload/generators.hpp"
#include "workload/zipf.hpp"

namespace gred::workload {
namespace {

// ---------- ZipfSampler ----------

TEST(ZipfTest, ProbabilitiesSumToOne) {
  const ZipfSampler z(100, 1.2);
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) total += z.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(z.probability(1000), 0.0);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  const ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(z.probability(k), 0.1, 1e-12);
  }
}

TEST(ZipfTest, MonotoneDecreasingProbabilities) {
  const ZipfSampler z(50, 0.9);
  for (std::size_t k = 1; k < 50; ++k) {
    EXPECT_GE(z.probability(k - 1), z.probability(k));
  }
}

TEST(ZipfTest, EmpiricalMatchesTheoretical) {
  const ZipfSampler z(20, 1.0);
  Rng rng(5);
  std::vector<int> counts(20, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / draws, z.probability(k),
                0.01)
        << "rank " << k;
  }
}

TEST(ZipfTest, SamplesInRange) {
  const ZipfSampler z(7, 2.0);
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.sample(rng), 7u);
  }
}

TEST(ZipfTest, SingleElement) {
  const ZipfSampler z(1, 1.5);
  Rng rng(7);
  EXPECT_EQ(z.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(z.probability(0), 1.0);
}

TEST(ZipfTest, HigherExponentMoreSkew) {
  const ZipfSampler mild(100, 0.5);
  const ZipfSampler steep(100, 2.0);
  EXPECT_GT(steep.probability(0), mild.probability(0));
  EXPECT_LT(steep.probability(99), mild.probability(99));
}

// ---------- identifiers ----------

TEST(TraceTest, IdentifierUniverse) {
  const auto ids = identifier_universe("x", 3);
  EXPECT_EQ(ids, (std::vector<std::string>{"x/0", "x/1", "x/2"}));
}

// Property sweep across (n, s) and seeds, including the degenerate
// uniform (s = 0) and extreme-skew corners: probabilities form a
// distribution, every sample is in range (the CDF boundary clamp), and
// empirical frequency tracks theory.
TEST(ZipfTest, PropertySweep) {
  const std::size_t sizes[] = {1, 2, 17, 257};
  const double exponents[] = {0.0, 0.5, 1.0, 2.5, 6.0};
  std::uint64_t seed = 40;
  for (std::size_t n : sizes) {
    for (double s : exponents) {
      const ZipfSampler z(n, s);
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) total += z.probability(k);
      EXPECT_NEAR(total, 1.0, 1e-9) << "n=" << n << " s=" << s;

      Rng rng(seed++);
      std::vector<int> counts(n, 0);
      const int draws = 20000;
      for (int i = 0; i < draws; ++i) {
        const std::size_t k = z.sample(rng);
        ASSERT_LT(k, n) << "n=" << n << " s=" << s;
        ++counts[k];
      }
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(static_cast<double>(counts[k]) / draws,
                    z.probability(k), 0.02)
            << "n=" << n << " s=" << s << " rank " << k;
      }
    }
  }
}

// ---------- hardening guards (hard checks, active in Release) ----------

TEST(WorkloadGuardDeathTest, ZipfEmptyUniverseAborts) {
  EXPECT_DEATH(ZipfSampler(0, 1.0), "invariant violated");
}

TEST(WorkloadGuardDeathTest, ZipfBadExponentAborts) {
  EXPECT_DEATH(ZipfSampler(5, -1.0), "invariant violated");
  EXPECT_DEATH(ZipfSampler(5, std::nan("")), "invariant violated");
}

}  // namespace
}  // namespace gred::workload
