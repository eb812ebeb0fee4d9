// Unit tests for the common substrate: Result/Status, Rng, statistics,
// Table, string utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gred {
namespace {

// ---------- Result / Status ----------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Error(ErrorCode::kNotFound, "missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message, "missing");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ErrorCodeAndMessageConstructor) {
  Result<std::string> r(ErrorCode::kInvalidArgument, "bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().to_string(), "invalid_argument: bad");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(static_cast<bool>(s));
}

TEST(StatusTest, ErrorState) {
  Status s(ErrorCode::kUnavailable, "down");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kUnavailable);
}

TEST(ErrorCodeTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (ErrorCode c :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
        ErrorCode::kOutOfRange, ErrorCode::kFailedPrecondition,
        ErrorCode::kUnavailable, ErrorCode::kInternal}) {
    names.insert(to_string(c));
  }
  EXPECT_EQ(names.size(), 6u);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowOneIsZero) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(9);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(p.size(), 50u);
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(10);
  std::vector<int> v{1, 2, 2, 3, 3, 3};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitStreamsAreIndependentButDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ca.next_u64(), cb.next_u64());
  }
}

TEST(RngTest, UniformityChiSquare) {
  // 16 buckets, 16000 draws: chi^2 with 15 dof, 99.9th pct ~ 37.7.
  Rng rng(77);
  std::vector<int> buckets(16, 0);
  const int draws = 16000;
  for (int i = 0; i < draws; ++i) {
    ++buckets[rng.next_below(16)];
  }
  const double expected = draws / 16.0;
  double chi2 = 0.0;
  for (int c : buckets) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

// ---------- Stats ----------

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats whole, a, b;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_gaussian() * 3.0 + 1.0;
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, CiShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(8);
  for (int i = 0; i < 100; ++i) small.add(rng.next_gaussian());
  for (int i = 0; i < 10000; ++i) large.add(rng.next_gaussian());
  EXPECT_GT(small.ci_halfwidth(0.90), large.ci_halfwidth(0.90));
}

TEST(RunningStatsTest, CiLevelOrdering) {
  RunningStats s;
  Rng rng(8);
  for (int i = 0; i < 100; ++i) s.add(rng.next_gaussian());
  EXPECT_LT(s.ci_halfwidth(0.90), s.ci_halfwidth(0.95));
  EXPECT_LT(s.ci_halfwidth(0.95), s.ci_halfwidth(0.99));
}

TEST(PercentileTest, Interpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 2.5);
}

TEST(PercentileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.99), 7.0);
}

TEST(SummaryTest, Basics) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_GT(s.ci90, 0.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(LoadMetricsTest, MaxOverAvg) {
  EXPECT_DOUBLE_EQ(max_over_avg({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(max_over_avg({10, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(max_over_avg({}), 0.0);
  EXPECT_DOUBLE_EQ(max_over_avg({0, 0}), 0.0);
}

TEST(LoadMetricsTest, JainFairness) {
  EXPECT_DOUBLE_EQ(jain_fairness({3, 3, 3}), 1.0);
  EXPECT_NEAR(jain_fairness({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(LoadMetricsTest, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({4, 4, 4}), 0.0);
  EXPECT_GT(coefficient_of_variation({1, 100}), 0.5);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to first bin
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(9), 10.0);
  EXPECT_FALSE(h.to_string().empty());
}

// ---------- Table ----------

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.to_string().find("x"), std::string::npos);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

// ---------- strings ----------

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"solo"}, "-"), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
}

}  // namespace
}  // namespace gred
