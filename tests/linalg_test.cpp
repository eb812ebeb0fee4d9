// Matrix algebra, the Jacobi eigensolver, and classical MDS (the
// mathematical core of the M-position algorithm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "graph/shortest_path.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/mds.hpp"
#include "topology/presets.hpp"
#include "topology/waxman.hpp"

namespace gred::linalg {
namespace {

// ---------- Matrix ----------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(MatrixTest, IdentityAndOnes) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix ones = Matrix::ones(2, 2);
  EXPECT_DOUBLE_EQ(ones(1, 1), 1.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a * Matrix::identity(2), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  EXPECT_EQ((a + b)(0, 0), 5.0);
  EXPECT_EQ((a - b)(1, 1), 3.0);
  EXPECT_EQ((a * 2.0)(1, 0), 6.0);
  EXPECT_EQ((2.0 * a)(1, 0), 6.0);
}

TEST(MatrixTest, ElementwiseSquare) {
  Matrix a{{-2.0, 3.0}};
  const Matrix sq = a.elementwise_square();
  EXPECT_DOUBLE_EQ(sq(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sq(0, 1), 9.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(MatrixTest, Symmetry) {
  Matrix s{{1.0, 2.0}, {2.0, 3.0}};
  Matrix a{{1.0, 2.0}, {2.5, 3.0}};
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_FALSE(a.is_symmetric());
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
}

// ---------- symmetric eigendecomposition ----------

TEST(EigenTest, DiagonalMatrix) {
  Matrix d{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const EigenDecomposition e = symmetric_eigen(d);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 2.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenDecomposition e = symmetric_eigen(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(e.vectors(0, 0)), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(e.vectors(0, 0), e.vectors(1, 0), 1e-8);
}

TEST(EigenTest, ReconstructsMatrix) {
  Rng rng(31);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-2.0, 2.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  // A == V diag(values) V^T
  Matrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = e.values[i];
  const Matrix rebuilt = e.vectors * lambda * e.vectors.transpose();
  EXPECT_LT(rebuilt.max_abs_diff(a), 1e-8);
}

TEST(EigenTest, VectorsAreOrthonormal) {
  Rng rng(32);
  const std::size_t n = 10;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  const Matrix vtv = e.vectors.transpose() * e.vectors;
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(n)), 1e-8);
}

TEST(EigenTest, ValuesSortedDescending) {
  Rng rng(33);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const EigenDecomposition e = symmetric_eigen(a);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(EigenTest, RejectsAsymmetric) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_THROW(symmetric_eigen(a), std::invalid_argument);
}

// ---------- classical MDS ----------

/// Distance matrix of explicit 2-D points.
Matrix distances_of(const std::vector<std::pair<double, double>>& pts) {
  const std::size_t n = pts.size();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      d(i, j) = std::sqrt(dx * dx + dy * dy);
    }
  }
  return d;
}

/// B = -1/2 J L^(2) J by explicit products, the textbook form the
/// solver's O(n^2) centring must match.
Matrix centred_gram(const Matrix& d) {
  const std::size_t n = d.rows();
  Matrix j = Matrix::identity(n);
  j -= Matrix::ones(n, n) * (1.0 / static_cast<double>(n));
  Matrix b = j * d.elementwise_square() * j;
  b *= -0.5;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (b(r, c) + b(c, r));
      b(r, c) = avg;
      b(c, r) = avg;
    }
  }
  return b;
}

TEST(MdsTest, RecoversPlanarConfigurationExactly) {
  // Points genuinely in 2-D: classical MDS must reproduce all pairwise
  // distances (stress ~ 0).
  const std::vector<std::pair<double, double>> pts{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}, {3.0, 1.0}, {-1.0, -1.0}};
  const Matrix d = distances_of(pts);
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_LT(r.value().stress, 1e-7);
  const Matrix dhat = pairwise_distances(r.value().coordinates);
  EXPECT_LT(dhat.max_abs_diff(d), 1e-7);
}

TEST(MdsTest, LineGraphEmbedsOnALine) {
  // Hop distances of a path graph are exactly 1-D Euclidean.
  const std::size_t n = 7;
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d(i, j) = std::fabs(static_cast<double>(i) - static_cast<double>(j));
    }
  }
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().stress, 1e-7);
  // Second coordinate should be ~0 for all points.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.value().coordinates(i, 1), 0.0, 1e-6);
  }
}

TEST(MdsTest, EigenvaluesDescending) {
  const std::vector<std::pair<double, double>> pts{
      {0.0, 0.0}, {2.0, 0.0}, {0.0, 1.0}, {2.0, 1.0}, {1.0, 3.0}};
  auto r = classical_mds(distances_of(pts), 2);
  ASSERT_TRUE(r.ok());
  const auto& ev = r.value().eigenvalues;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i - 1], ev[i] - 1e-9);
  }
}

TEST(MdsTest, TranslationInvariant) {
  const std::vector<std::pair<double, double>> base{
      {0.0, 0.0}, {1.0, 0.5}, {2.0, -1.0}, {0.5, 2.0}};
  std::vector<std::pair<double, double>> shifted;
  for (auto [x, y] : base) shifted.push_back({x + 100.0, y - 50.0});
  auto a = classical_mds(distances_of(base), 2);
  auto b = classical_mds(distances_of(shifted), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same distance matrices -> same embedded distances.
  const Matrix da = pairwise_distances(a.value().coordinates);
  const Matrix db = pairwise_distances(b.value().coordinates);
  EXPECT_LT(da.max_abs_diff(db), 1e-8);
}

TEST(MdsTest, RejectsBadInput) {
  EXPECT_FALSE(classical_mds(Matrix(0, 0), 2).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 4), 2).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 3), 0).ok());
  EXPECT_FALSE(classical_mds(Matrix(3, 3), 3).ok());

  Matrix asym(3, 3);
  asym(0, 1) = 1.0;  // not mirrored
  asym(1, 0) = 2.0;
  asym(0, 2) = asym(2, 0) = 1.0;
  asym(1, 2) = asym(2, 1) = 1.0;
  EXPECT_FALSE(classical_mds(asym, 2).ok());

  Matrix neg{{0.0, -1.0}, {-1.0, 0.0}};
  EXPECT_FALSE(classical_mds(neg, 1).ok());

  Matrix diag{{1.0, 1.0}, {1.0, 0.0}};
  EXPECT_FALSE(classical_mds(diag, 1).ok());
}

TEST(MdsTest, NonEuclideanDistancesStillEmbed) {
  // Hop metric of a star graph (center 0): d(leaf, leaf) = 2, d(0,
  // leaf) = 1. Not planar-Euclidean for 5 leaves, so stress > 0, but
  // the embedding must exist and be finite.
  const std::size_t n = 6;
  Matrix d(n, n);
  for (std::size_t i = 1; i < n; ++i) {
    d(0, i) = d(i, 0) = 1.0;
    for (std::size_t j = 1; j < n; ++j) {
      if (i != j) d(i, j) = 2.0;
    }
  }
  auto r = classical_mds(d, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().stress, 0.0);
  EXPECT_LT(r.value().stress, 0.6);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(r.value().coordinates(i, 0)));
    EXPECT_TRUE(std::isfinite(r.value().coordinates(i, 1)));
  }
}

TEST(MdsTest, HigherDimensionReducesStrain) {
  // Classical MDS minimizes *strain* (squared-distance residual), and
  // adding a positive-eigenvalue dimension must not increase it. (Note
  // Kruskal stress is NOT monotone in m — a correct subtlety.)
  Rng rng(44);
  const std::size_t n = 10;
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  Matrix d = distances_of(pts);
  // Perturb to make it slightly non-Euclidean.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double f = 1.0 + 0.1 * rng.next_double();
      d(i, j) *= f;
      d(j, i) = d(i, j);
    }
  }
  auto m2 = classical_mds(d, 2);
  auto m3 = classical_mds(d, 3);
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m3.ok());
  // Strain = || B - Q Q^T ||_F^2 where B is the double-centered squared
  // distance matrix — the objective classical MDS provably minimizes,
  // monotone non-increasing in m.
  const Matrix b = centred_gram(d);
  auto strain = [&b](const Matrix& coords) {
    const Matrix bhat = coords * coords.transpose();
    const Matrix diff = b - bhat;
    return diff.frobenius_norm();
  };
  EXPECT_LE(strain(m3.value().coordinates),
            strain(m2.value().coordinates) + 1e-9);
}

// ---------- classical MDS against the full Jacobi decomposition ----------

/// Hop-distance matrix of a connected graph.
Matrix hop_distances(const graph::Graph& g) {
  const auto apsp = graph::all_pairs_shortest_paths(g);
  const std::size_t n = g.node_count();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d(i, j) = apsp.dist(i, j);
  }
  return d;
}

graph::Graph waxman_graph(std::size_t n, std::uint64_t seed) {
  topology::WaxmanOptions opt;
  opt.node_count = n;
  Rng rng(seed);
  return topology::generate_waxman(opt, rng).value().graph;
}

struct MdsOracleCase {
  std::string name;
  graph::Graph graph;
  /// lambda_m == lambda_{m+1}: the top-m eigenspace is not unique, so
  /// Q Q^T may differ from the oracle's while both are exact.
  bool tied;
};

class MdsOracleTest : public ::testing::TestWithParam<int> {};

MdsOracleCase oracle_case(int id) {
  switch (id) {
    case 0: return {"waxman128", waxman_graph(128, 7128), false};
    case 1: return {"waxman256", waxman_graph(256, 7256), false};
    case 2: return {"ring64", topology::ring(64), false};
    case 3: return {"grid8x8", topology::grid(8, 8), false};
    case 4: return {"grid12x6", topology::grid(12, 6), false};
    case 5: return {"testbed6", topology::testbed6(), true};
    case 6: return {"star16", topology::star(16), true};
    default: return {"complete12", topology::complete(12), true};
  }
}

TEST_P(MdsOracleTest, TopEigenpairsMatchJacobi) {
  constexpr std::size_t m = 2;
  const MdsOracleCase tc = oracle_case(GetParam());
  SCOPED_TRACE(tc.name);
  const Matrix d = hop_distances(tc.graph);
  const std::size_t n = d.rows();
  const Matrix b = centred_gram(d);
  const EigenDecomposition oracle = symmetric_eigen(b);
  const double top = oracle.values[0];
  ASSERT_GT(top, 0.0);
  EXPECT_EQ(tc.tied, oracle.values[m - 1] - oracle.values[m] <= 1e-9 * top);

  auto r = classical_mds(d, m);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const MdsResult& got = r.value();
  ASSERT_EQ(got.eigenvalues.size(), m);
  for (std::size_t c = 0; c < m; ++c) {
    EXPECT_NEAR(got.eigenvalues[c], oracle.values[c],
                1e-9 * std::fabs(oracle.values[c]))
        << "axis " << c;
  }

  // Every axis is an eigenvector of B scaled by sqrt(lambda): recover
  // the unit vectors and check residual and orthonormality.
  std::vector<std::vector<double>> v(m, std::vector<double>(n));
  for (std::size_t c = 0; c < m; ++c) {
    const double scale = std::sqrt(got.eigenvalues[c]);
    for (std::size_t i = 0; i < n; ++i) {
      v[c][i] = got.coordinates(i, c) / scale;
    }
  }
  const double b_norm = b.frobenius_norm();
  for (std::size_t c = 0; c < m; ++c) {
    double res_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double bv = 0.0;
      for (std::size_t j = 0; j < n; ++j) bv += b(i, j) * v[c][j];
      const double diff = bv - got.eigenvalues[c] * v[c][i];
      res_sq += diff * diff;
    }
    EXPECT_LE(std::sqrt(res_sq), 1e-9 * b_norm) << "axis " << c;
    for (std::size_t e = 0; e < m; ++e) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += v[c][i] * v[e][i];
      EXPECT_NEAR(dot, c == e ? 1.0 : 0.0, 1e-9) << c << "," << e;
    }
  }

  // With a gap below the top m, Q Q^T is unique: the solver's must be
  // the oracle's, whatever rotation or signs each picked.
  if (!tc.tied) {
    double worst = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double mine = 0.0;
        double want = 0.0;
        for (std::size_t c = 0; c < m; ++c) {
          mine += got.coordinates(i, c) * got.coordinates(j, c);
          want += oracle.values[c] * oracle.vectors(i, c) *
                  oracle.vectors(j, c);
        }
        worst = std::max(worst, std::fabs(mine - want));
        scale = std::max(scale, std::fabs(want));
      }
    }
    EXPECT_LE(worst, 1e-7 * scale);
  }
}

TEST_P(MdsOracleTest, DeterministicAndSigned) {
  const MdsOracleCase tc = oracle_case(GetParam());
  SCOPED_TRACE(tc.name);
  const Matrix d = hop_distances(tc.graph);
  auto first = classical_mds(d, 2);
  auto second = classical_mds(d, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().coordinates, second.value().coordinates);
  EXPECT_EQ(first.value().eigenvalues, second.value().eigenvalues);
  EXPECT_EQ(first.value().stress, second.value().stress);

  // Sign convention: on every axis the largest-magnitude coordinate
  // (lowest index on ties) is positive.
  const Matrix& q = first.value().coordinates;
  for (std::size_t c = 0; c < q.cols(); ++c) {
    std::size_t peak = 0;
    for (std::size_t i = 1; i < q.rows(); ++i) {
      if (std::fabs(q(i, c)) > std::fabs(q(peak, c))) peak = i;
    }
    EXPECT_GT(q(peak, c), 0.0) << "axis " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, MdsOracleTest, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return oracle_case(info.param).name;
                         });

TEST(KruskalStressTest, ZeroForExactMatch) {
  Matrix coords{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const Matrix d = pairwise_distances(coords);
  EXPECT_NEAR(kruskal_stress(d, coords), 0.0, 1e-12);
}

TEST(PairwiseDistancesTest, SymmetricZeroDiagonal) {
  Matrix coords{{0.0, 0.0}, {3.0, 4.0}};
  const Matrix d = pairwise_distances(coords);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
}

}  // namespace
}  // namespace gred::linalg
