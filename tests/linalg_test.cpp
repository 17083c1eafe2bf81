// Unit tests for csecg::linalg — vector primitives, dense and sparse
// matrices, the §IV-B backend kernels, and the power iteration.
// (backend_test.cpp holds the cross-backend property tests and the
// op-count goldens.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "csecg/linalg/backend.hpp"
#include "csecg/linalg/dense_matrix.hpp"
#include "csecg/linalg/linear_operator.hpp"
#include "csecg/linalg/sparse_binary_matrix.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::linalg {
namespace {

std::vector<double> random_vector(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.gaussian();
  }
  return v;
}

std::vector<float> random_vector_f(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.gaussian());
  }
  return v;
}

// ----------------------------------------------------------- vector ops --

TEST(VectorOpsTest, DotMatchesManualSum) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot<double>(a, b), 1 * 4 - 2 * 5 + 3 * 6);
}

TEST(VectorOpsTest, DotRejectsSizeMismatch) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(dot<double>(a, b), Error);
}

TEST(VectorOpsTest, AxpyAccumulates) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(2.0, std::span<const double>(x), std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(VectorOpsTest, NormsOnKnownVector) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2<double>(v), 5.0);
  EXPECT_DOUBLE_EQ(norm1<double>(v), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf<double>(v), 4.0);
}

TEST(VectorOpsTest, CountNonzeroWithTolerance) {
  const std::vector<double> v{0.0, 1e-9, -0.5, 2.0};
  EXPECT_EQ(count_nonzero<double>(v), 3u);
  EXPECT_EQ(count_nonzero<double>(v, 1e-6), 2u);
}

TEST(VectorOpsTest, SoftThresholdShrinksTowardZero) {
  const std::vector<double> x{3.0, -3.0, 0.5, -0.5, 0.0};
  std::vector<double> out(5);
  soft_threshold<double>(x, 1.0, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  EXPECT_DOUBLE_EQ(out[4], 0.0);
}

TEST(VectorOpsTest, SoftThresholdInPlace) {
  std::vector<double> x{2.0, -2.0};
  soft_threshold<double>(x, 0.5, x);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
  EXPECT_DOUBLE_EQ(x[1], -1.5);
}

TEST(VectorOpsTest, SoftThresholdIsProxOfL1) {
  // prox property: out minimises 0.5 ||z - x||^2 + t ||z||_1, so for any
  // perturbation the objective must not decrease.
  util::Rng rng(3);
  const auto x = random_vector(32, rng);
  std::vector<double> out(32);
  const double t = 0.7;
  soft_threshold<double>(x, t, out);
  const auto objective = [&](const std::vector<double>& z) {
    double obj = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      obj += 0.5 * (z[i] - x[i]) * (z[i] - x[i]) + t * std::fabs(z[i]);
    }
    return obj;
  };
  const double best = objective(out);
  for (int trial = 0; trial < 50; ++trial) {
    auto z = out;
    z[static_cast<std::size_t>(rng.uniform_index(32))] +=
        rng.gaussian(0.0, 0.1);
    EXPECT_GE(objective(z) + 1e-12, best);
  }
}

// --------------------------------------------------------- dense matrix --

TEST(DenseMatrixTest, ApplyMatchesManual) {
  DenseMatrix<double> m(2, 3);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(0, 2) = 3.0;
  m(1, 0) = -1.0;
  m(1, 1) = 0.5;
  m(1, 2) = 4.0;
  const std::vector<double> x{1.0, 1.0, 1.0};
  std::vector<double> y(2);
  m.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 3.5);
}

TEST(DenseMatrixTest, TransposeIsAdjoint) {
  util::Rng rng(4);
  DenseMatrix<double> m(5, 9);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      m(r, c) = rng.gaussian();
    }
  }
  const auto x = random_vector(9, rng);
  const auto u = random_vector(5, rng);
  std::vector<double> mx(5);
  std::vector<double> mtu(9);
  m.apply(x, mx);
  m.apply_transpose(u, mtu);
  // <Mx, u> == <x, M^T u>
  EXPECT_NEAR(dot<double>(mx, u), dot<double>(x, mtu), 1e-10);
}

TEST(DenseMatrixTest, IndexBoundsChecked) {
  DenseMatrix<double> m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

// -------------------------------------------------------- sparse binary --

TEST(SparseBinaryMatrixTest, ColumnStructure) {
  util::Rng rng(5);
  SparseBinaryMatrix phi(256, 512, 12, rng);
  EXPECT_EQ(phi.rows(), 256u);
  EXPECT_EQ(phi.cols(), 512u);
  EXPECT_EQ(phi.nonzeros_per_column(), 12u);
  EXPECT_NEAR(phi.value(), 1.0 / std::sqrt(12.0), 1e-15);
  for (std::size_t c = 0; c < phi.cols(); ++c) {
    const auto rows = phi.column_rows(c);
    ASSERT_EQ(rows.size(), 12u);
    for (std::size_t k = 1; k < rows.size(); ++k) {
      ASSERT_LT(rows[k - 1], rows[k]);  // distinct and sorted
    }
  }
}

TEST(SparseBinaryMatrixTest, ApplyMatchesExplicitConstruction) {
  util::Rng rng(6);
  SparseBinaryMatrix phi(16, 32, 4, rng);
  // Build the dense equivalent and compare.
  DenseMatrix<double> dense(16, 32);
  for (std::size_t c = 0; c < 32; ++c) {
    for (const auto r : phi.column_rows(c)) {
      dense(r, c) = phi.value();
    }
  }
  const auto x = random_vector(32, rng);
  std::vector<double> y_sparse(16);
  std::vector<double> y_dense(16);
  phi.apply<double>(x, y_sparse);
  dense.apply(x, y_dense);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_NEAR(y_sparse[r], y_dense[r], 1e-12);
  }
}

TEST(SparseBinaryMatrixTest, TransposeIsAdjoint) {
  util::Rng rng(7);
  SparseBinaryMatrix phi(64, 128, 8, rng);
  const auto x = random_vector(128, rng);
  const auto u = random_vector(64, rng);
  std::vector<double> px(64);
  std::vector<double> ptu(128);
  phi.apply<double>(x, px);
  phi.apply_transpose<double>(u, ptu);
  EXPECT_NEAR(dot<double>(px, u), dot<double>(x, ptu), 1e-10);
}

TEST(SparseBinaryMatrixTest, IntegerPathMatchesFloatUnscaled) {
  util::Rng rng(8);
  SparseBinaryMatrix phi(32, 64, 6, rng);
  std::vector<std::int16_t> x(64);
  std::vector<double> xd(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x[i] = static_cast<std::int16_t>(rng.uniform_int(-1024, 1023));
    xd[i] = static_cast<double>(x[i]);
  }
  std::vector<std::int32_t> y_int(32);
  std::vector<double> y_d(32);
  phi.accumulate_integer(x, y_int);
  phi.apply<double>(xd, y_d);
  // The float path applies the 1/sqrt(d) scale; the integer path defers.
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_NEAR(static_cast<double>(y_int[r]) * phi.value(), y_d[r], 1e-9);
  }
}

TEST(SparseBinaryMatrixTest, ExplicitIndexConstructor) {
  std::vector<std::uint16_t> table{0, 1, 1, 2, 0, 2};  // 3 cols, d = 2
  SparseBinaryMatrix phi(3, 3, 2, table);
  EXPECT_EQ(phi.column_rows(1)[0], 1);
  EXPECT_EQ(phi.column_rows(1)[1], 2);
  EXPECT_EQ(phi.storage_bytes(), 6u * sizeof(std::uint16_t));
  // Invalid table: wrong size, and out-of-range row.
  EXPECT_THROW(SparseBinaryMatrix(3, 3, 2, std::vector<std::uint16_t>{0}),
               Error);
  EXPECT_THROW(SparseBinaryMatrix(
                   3, 3, 2, std::vector<std::uint16_t>{0, 1, 1, 2, 0, 9}),
               Error);
}

TEST(SparseBinaryMatrixTest, StorageIsIndexTableOnly) {
  util::Rng rng(9);
  SparseBinaryMatrix phi(256, 512, 12, rng);
  EXPECT_EQ(phi.storage_bytes(), 512u * 12u * 2u);  // ~12 kB
}

TEST(SparseBinaryMatrixTest, OverlapDiagnosticIsSmall) {
  util::Rng rng(10);
  SparseBinaryMatrix phi(256, 512, 12, rng);
  // Expected shared rows between two random columns: d^2 / M = 0.5625.
  const double overlap = phi.average_column_overlap();
  EXPECT_GT(overlap, 0.2);
  EXPECT_LT(overlap, 1.2);
}

TEST(SparseBinaryMatrixTest, RejectsBadParameters) {
  util::Rng rng(11);
  EXPECT_THROW(SparseBinaryMatrix(4, 8, 0, rng), Error);
  EXPECT_THROW(SparseBinaryMatrix(4, 8, 5, rng), Error);
  EXPECT_THROW(SparseBinaryMatrix(0, 8, 1, rng), Error);
}

// The panel applies run groups of up to four rows through the interleaved
// lanes-across-rows gather; every group must be bitwise equal to the
// single-row applies. 6 rows = one full lane group plus a 2-wide one.
TEST(SparseBinaryMatrixTest, BatchAppliesAreBitwiseRowByRow) {
  util::Rng rng(12);
  const std::size_t m = 48;
  const std::size_t n = 96;
  const std::size_t batch = 6;
  SparseBinaryMatrix phi(m, n, 7, rng);

  const auto check = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> x(batch * n), y_panel(batch * m, T(-1)),
        y_rows(batch * m, T(-2));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<T>(rng.gaussian());
    }
    phi.apply_batch<T>(x, y_panel, batch);
    for (std::size_t b = 0; b < batch; ++b) {
      phi.apply<T>(std::span<const T>(x.data() + b * n, n),
                   std::span<T>(y_rows.data() + b * m, m));
    }
    for (std::size_t i = 0; i < batch * m; ++i) {
      ASSERT_EQ(y_panel[i], y_rows[i]) << "apply i=" << i;
    }

    std::vector<T> t_panel(batch * n, T(-1)), t_rows(batch * n, T(-2));
    phi.apply_transpose_batch<T>(y_panel, t_panel, batch);
    for (std::size_t b = 0; b < batch; ++b) {
      phi.apply_transpose<T>(std::span<const T>(y_panel.data() + b * m, m),
                             std::span<T>(t_rows.data() + b * n, n));
    }
    for (std::size_t i = 0; i < batch * n; ++i) {
      ASSERT_EQ(t_panel[i], t_rows[i]) << "apply_transpose i=" << i;
    }
  };
  check(float{});
  check(double{});
}

// The projections gather (Phi over the row twin, Phi^T over the column
// table) in blocks of four outputs and, in a panel, four interleaved
// lanes. Whatever the shape and panel width, every row must be bitwise
// the mote-order column scatter (Phi) and column gather (Phi^T): the
// sweep covers block tails (154 and 358 rows, 7 x 9), single-entry
// columns (d = 1), an explicit table and widths 1-9 (full lane groups,
// 2- and 3-wide groups, and a lone tail row).
template <typename T>
void expect_projections_match_column_oracle(const SparseBinaryMatrix& phi,
                                            util::Rng& rng) {
  const std::size_t m = phi.rows();
  const std::size_t n = phi.cols();
  const T scale = static_cast<T>(phi.value());
  const auto scatter = [&](const T* x, T* y) {
    std::fill(y, y + m, T{});
    for (std::size_t c = 0; c < n; ++c) {
      for (const auto r : phi.column_rows(c)) {
        y[r] += x[c];
      }
    }
    for (std::size_t r = 0; r < m; ++r) {
      y[r] *= scale;
    }
  };
  const auto column_gather = [&](const T* x, T* y) {
    for (std::size_t c = 0; c < n; ++c) {
      T acc{};
      for (const auto r : phi.column_rows(c)) {
        acc += x[r];
      }
      y[c] = acc * scale;
    }
  };
  for (std::size_t width = 1; width <= 9; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<T> x(width * n);
    std::vector<T> r(width * m);
    for (auto& v : x) {
      v = static_cast<T>(rng.gaussian());
    }
    for (auto& v : r) {
      v = static_cast<T>(rng.gaussian());
    }
    std::vector<T> want_y(width * m), want_t(width * n);
    for (std::size_t b = 0; b < width; ++b) {
      scatter(x.data() + b * n, want_y.data() + b * m);
      column_gather(r.data() + b * m, want_t.data() + b * n);
    }
    std::vector<T> got_y(width * m, T(-7)), got_t(width * n, T(-7));
    phi.apply_batch<T>(x, got_y, width);
    phi.apply_transpose_batch<T>(r, got_t, width);
    for (std::size_t i = 0; i < width * m; ++i) {
      ASSERT_EQ(got_y[i], want_y[i]) << "apply_batch i=" << i;
    }
    for (std::size_t i = 0; i < width * n; ++i) {
      ASSERT_EQ(got_t[i], want_t[i]) << "apply_transpose_batch i=" << i;
    }
    if (width == 1) {
      std::fill(got_y.begin(), got_y.end(), T(-7));
      std::fill(got_t.begin(), got_t.end(), T(-7));
      phi.apply<T>(x, got_y);
      phi.apply_transpose<T>(r, got_t);
      EXPECT_EQ(got_y, want_y);
      EXPECT_EQ(got_t, want_t);
    }
  }
}

TEST(SparseBinaryMatrixTest, GathersMatchColumnOracleAtEveryWidth) {
  struct Shape {
    std::size_t rows, cols, d;
  };
  util::Rng rng(13);
  for (const Shape shape : {Shape{256, 512, 12}, Shape{154, 512, 12},
                            Shape{358, 512, 12}, Shape{7, 9, 3},
                            Shape{40, 96, 1}}) {
    SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                 std::to_string(shape.cols) + " d=" +
                 std::to_string(shape.d));
    const SparseBinaryMatrix phi(shape.rows, shape.cols, shape.d, rng);
    expect_projections_match_column_oracle<float>(phi, rng);
    expect_projections_match_column_oracle<double>(phi, rng);
  }
  // An explicit table with an empty row (row 3) and uneven row lengths.
  const SparseBinaryMatrix table(
      5, 6, 2, std::vector<std::uint16_t>{0, 1, 0, 2, 1, 4, 0, 4, 2, 4, 0, 1});
  expect_projections_match_column_oracle<float>(table, rng);
  expect_projections_match_column_oracle<double>(table, rng);
}

TEST(SparseBinaryMatrixTest, ExplicitTableFailsClosed) {
  // A repeated row would silently double its entry; out of order breaks
  // the sorted, distinct promise of column_rows().
  EXPECT_THROW(SparseBinaryMatrix(
                   3, 3, 2, std::vector<std::uint16_t>{1, 1, 1, 2, 0, 2}),
               Error);
  EXPECT_THROW(SparseBinaryMatrix(
                   3, 3, 2, std::vector<std::uint16_t>{2, 1, 1, 2, 0, 2}),
               Error);
  EXPECT_THROW(SparseBinaryMatrix(
                   3, 3, 2, std::vector<std::uint16_t>{0, 1, 1, 2, 2, 0}),
               Error);
  // Column indices of the row twin are uint16.
  EXPECT_THROW(
      SparseBinaryMatrix(1, 65537, 1, std::vector<std::uint16_t>(65537, 0)),
      Error);
  EXPECT_NO_THROW(
      SparseBinaryMatrix(1, 65536, 1, std::vector<std::uint16_t>(65536, 0)));
}

// -------------------------------------------------------------- kernels --

/// Native dot keeps the 8-float / 4-double lane order of one 32-byte
/// accumulator (lane k sums i = k mod lanes, lanes added in order, then
/// the scalar tail) on 16-byte vectors; pinned bitwise against that
/// explicit oracle.
template <typename T>
T lane_order_dot(const T* a, const T* b, std::size_t n) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  T acc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] += a[i + l] * b[i + l];
    }
  }
  T sum{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    sum += acc[l];
  }
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

TEST(NativeDotTest, MatchesLaneOrderOracleBitwise) {
  if (!native_simd_available()) {
    GTEST_SKIP() << "native SIMD compiled out: native is the reference";
  }
  util::Rng rng(21);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(511);
  sizes.push_back(512);
  for (const std::size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto ad = random_vector(n, rng);
    const auto bd = random_vector(n, rng);
    EXPECT_EQ(native_backend().dot(ad.data(), bd.data(), n),
              lane_order_dot(ad.data(), bd.data(), n));
    const auto af = random_vector_f(n, rng);
    const auto bf = random_vector_f(n, rng);
    EXPECT_EQ(native_backend().dot(af.data(), bf.data(), n),
              lane_order_dot(af.data(), bf.data(), n));
  }
}

/// The reference and native kernel sets must produce the same math; the
/// sweep covers multiples of the vector widths and their leftover tails.
/// (Randomized parity against a double oracle lives in backend_test.cpp.)
class KernelParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelParityTest, DotParity) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 1);
  const auto a = random_vector_f(n, rng);
  const auto b = random_vector_f(n, rng);
  const float ref = reference_backend().dot(a.data(), b.data(), n);
  const float wide = native_backend().dot(a.data(), b.data(), n);
  EXPECT_NEAR(ref, wide, 1e-3f * (std::fabs(ref) + 1.0f));
}

TEST_P(KernelParityTest, AxpyParity) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 2);
  const auto x = random_vector_f(n, rng);
  auto y1 = random_vector_f(n, rng);
  auto y2 = y1;
  reference_backend().axpy_batch(0.37f, x.data(), y1.data(), 1, n);
  native_backend().axpy_batch(0.37f, x.data(), y2.data(), 1, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(y1[i], y2[i]);
  }
}

TEST_P(KernelParityTest, SubtractParity) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 4);
  const auto a = random_vector_f(n, rng);
  const auto b = random_vector_f(n, rng);
  std::vector<float> o1(n);
  std::vector<float> o2(n);
  reference_backend().subtract(a.data(), b.data(), o1.data(), n);
  native_backend().subtract(a.data(), b.data(), o2.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(o1[i], o2[i]);
    EXPECT_FLOAT_EQ(o1[i], a[i] - b[i]);
  }
}

TEST_P(KernelParityTest, SoftThresholdParityAndSemantics) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 5);
  auto u = random_vector_f(n, rng);
  if (n > 2) {
    u[1] = 0.0f;  // exercise the zero branch of the sign
  }
  std::vector<float> y1(n);
  std::vector<float> y2(n);
  const float t = 0.4f;
  reference_backend().soft_threshold(u.data(), t, y1.data(), n);
  native_backend().soft_threshold(u.data(), t, y2.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(y1[i], y2[i]);
    const float expected =
        u[i] > t ? u[i] - t : (u[i] < -t ? u[i] + t : 0.0f);
    EXPECT_NEAR(y1[i], expected, 1e-6f);
  }
}

TEST_P(KernelParityTest, DualBandAnalysisSynthesisParity) {
  const std::size_t half = GetParam();
  if (half == 0) {
    return;
  }
  constexpr std::size_t kTaps = 8;
  util::Rng rng(half + 7);
  const auto ext = random_vector_f(2 * half + kTaps - 1, rng);
  const auto h0 = random_vector_f(kTaps, rng);
  const auto h1 = random_vector_f(kTaps, rng);
  std::vector<float> a1(half);
  std::vector<float> d1(half);
  std::vector<float> a2(half);
  std::vector<float> d2(half);
  reference_backend().dual_band_analysis(ext.data(), h0.data(), h1.data(),
                                         a1.data(), d1.data(), half, kTaps);
  native_backend().dual_band_analysis(ext.data(), h0.data(), h1.data(),
                                      a2.data(), d2.data(), half, kTaps);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_NEAR(a1[i], a2[i], 1e-4f);
    EXPECT_NEAR(d1[i], d2[i], 1e-4f);
  }
  std::vector<float> x1(2 * half + kTaps - 1, 0.0f);
  std::vector<float> x2(2 * half + kTaps - 1, 0.0f);
  reference_backend().dual_band_synthesis(a1.data(), d1.data(), h0.data(),
                                          h1.data(), x1.data(), half, kTaps);
  native_backend().dual_band_synthesis(a2.data(), d2.data(), h0.data(),
                                       h1.data(), x2.data(), half, kTaps);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(SizesIncludingLeftovers, KernelParityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                           63, 64, 100, 512));

TEST(KernelCountingTest, NoScopeMeansNoCounting) {
  // Must not crash or count when no scope is active.
  std::vector<float> a(8, 1.0f);
  std::vector<float> b(8, 2.0f);
  EXPECT_NO_FATAL_FAILURE(
      counting_simd4_backend().dot(a.data(), b.data(), 8));
}

TEST(KernelCountingTest, ScalarModeCountsScalarMacs) {
  std::vector<float> a(16, 1.0f);
  std::vector<float> b(16, 2.0f);
  OpCounterScope scope;
  counting_scalar_backend().dot(a.data(), b.data(), 16);
  EXPECT_EQ(scope.counts().scalar_mac, 16u);
  EXPECT_EQ(scope.counts().vector_mac4, 0u);
  EXPECT_EQ(scope.counts().loads, 32u);
}

TEST(KernelCountingTest, Simd4ModeCountsVectorMacs) {
  std::vector<float> a(16, 1.0f);
  std::vector<float> b(16, 2.0f);
  OpCounterScope scope;
  counting_simd4_backend().dot(a.data(), b.data(), 16);
  EXPECT_EQ(scope.counts().vector_mac4, 4u);
  EXPECT_EQ(scope.counts().scalar_mac, 0u);
  EXPECT_EQ(scope.counts().leftover_lane, 0u);
}

TEST(KernelCountingTest, LeftoverLanesCounted) {
  std::vector<float> a(10, 1.0f);
  std::vector<float> b(10, 2.0f);
  OpCounterScope scope;
  counting_simd4_backend().dot(a.data(), b.data(), 10);
  EXPECT_EQ(scope.counts().vector_mac4, 2u);   // 8 of 10 elements
  EXPECT_EQ(scope.counts().leftover_lane, 2u); // Fig 3 tail
}

TEST(KernelCountingTest, ScopesNestAndRestore) {
  std::vector<float> a(4, 1.0f);
  std::vector<float> b(4, 1.0f);
  OpCounterScope outer;
  counting_scalar_backend().dot(a.data(), b.data(), 4);
  {
    OpCounterScope inner;
    counting_scalar_backend().dot(a.data(), b.data(), 4);
    EXPECT_EQ(inner.counts().scalar_mac, 4u);
  }
  counting_scalar_backend().dot(a.data(), b.data(), 4);
  EXPECT_EQ(outer.counts().scalar_mac, 8u);  // inner scope not double-counted
}

TEST(KernelCountingTest, PlainBackendsNeverCharge) {
  // Only the counting decorator prices work; the plain implementations
  // stay silent even inside an open scope.
  std::vector<float> a(16, 1.0f);
  std::vector<float> b(16, 2.0f);
  std::vector<float> out(16);
  OpCounterScope scope;
  for (const Backend* be : {&reference_backend(), &native_backend()}) {
    be->dot(a.data(), b.data(), 16);
    be->axpy_batch(0.5f, a.data(), out.data(), 1, 16);
    be->soft_threshold(a.data(), 0.1f, out.data(), 16);
    be->norm1(a.data(), 16);
  }
  EXPECT_EQ(scope.counts().scalar_mac, 0u);
  EXPECT_EQ(scope.counts().scalar_op, 0u);
  EXPECT_EQ(scope.counts().vector_mac4, 0u);
  EXPECT_EQ(scope.counts().vector_op4, 0u);
  EXPECT_EQ(scope.counts().leftover_lane, 0u);
  EXPECT_EQ(scope.counts().loads, 0u);
  EXPECT_EQ(scope.counts().stores, 0u);
}

// The schedule is a pricing argument, read from schedule(); kind() and
// the name report the wrapped kernel set.
TEST(KernelCountingTest, CountingPreservesInnerKindAndName) {
  EXPECT_EQ(counting_scalar_backend().kind(), BackendKind::kReference);
  EXPECT_EQ(counting_simd4_backend().kind(), BackendKind::kReference);
  EXPECT_EQ(counting_scalar_backend().schedule(), KernelMode::kScalar);
  EXPECT_EQ(counting_simd4_backend().schedule(), KernelMode::kSimd4);
  EXPECT_EQ(counting_scalar_backend().counting(), &counting_scalar_backend());
  EXPECT_EQ(reference_backend().counting(), nullptr);
  EXPECT_EQ(native_backend().counting(), nullptr);
  EXPECT_STREQ(counting_scalar_backend().name(),
               "counting(reference, scalar)");
  EXPECT_STREQ(counting_simd4_backend().name(), "counting(reference, simd4)");
  const CountingBackend over_native(native_backend());
  EXPECT_EQ(over_native.kind(), native_backend().kind());
  EXPECT_EQ(over_native.schedule(), KernelMode::kSimd4);
}

TEST(KernelCountingTest, BackendByNameResolves) {
  EXPECT_EQ(backend_by_name("reference"), &reference_backend());
  EXPECT_EQ(backend_by_name("scalar"), nullptr);
  EXPECT_EQ(backend_by_name("simd4"), nullptr);
  EXPECT_EQ(backend_by_name("native"), &native_backend());
  EXPECT_EQ(backend_by_name("neon"), nullptr);
}

TEST(KernelCountingTest, ChargeAddsExternalCounts) {
  OpCounterScope scope;
  OpCounts delta;
  delta.scalar_op = 7;
  delta.stores = 3;
  charge(delta);
  charge(delta);
  EXPECT_EQ(scope.counts().scalar_op, 14u);
  EXPECT_EQ(scope.counts().stores, 6u);
}

// ------------------------------------------------------- power iteration --

class DenseOperator final : public LinearOperator<double> {
 public:
  explicit DenseOperator(DenseMatrix<double> m) : m_(std::move(m)) {}
  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    m_.apply(x, y);
  }
  void apply_adjoint(std::span<const double> x,
                     std::span<double> y) const override {
    m_.apply_transpose(x, y);
  }

 private:
  DenseMatrix<double> m_;
};

TEST(SpectralNormTest, DiagonalMatrixKnownNorm) {
  DenseMatrix<double> m(3, 3);
  m(0, 0) = 1.0;
  m(1, 1) = -5.0;
  m(2, 2) = 2.0;
  DenseOperator op(std::move(m));
  EXPECT_NEAR(estimate_spectral_norm_squared(op, 60), 25.0, 1e-6);
}

TEST(SpectralNormTest, ZeroOperator) {
  DenseOperator op(DenseMatrix<double>(4, 4));
  EXPECT_EQ(estimate_spectral_norm_squared(op), 0.0);
}

TEST(SpectralNormTest, MatchesGramPowerOnRandomMatrix) {
  util::Rng rng(42);
  DenseMatrix<double> m(6, 10);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      m(r, c) = rng.gaussian();
    }
  }
  // Reference: dense power iteration on G = M^T M.
  std::vector<double> v(10, 1.0);
  std::vector<double> mv(6);
  std::vector<double> gv(10);
  double lambda = 0.0;
  for (int it = 0; it < 500; ++it) {
    m.apply(v, mv);
    m.apply_transpose(mv, gv);
    lambda = norm2<double>(gv) / norm2<double>(v);
    const double inv = 1.0 / norm2<double>(gv);
    for (std::size_t i = 0; i < 10; ++i) {
      v[i] = gv[i] * inv;
    }
  }
  DenseOperator op(std::move(m));
  EXPECT_NEAR(estimate_spectral_norm_squared(op, 500), lambda,
              1e-6 * lambda);
}

}  // namespace
}  // namespace csecg::linalg
