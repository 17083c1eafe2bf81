// Property-based sweeps for csecg::linalg — structural invariants over
// parameter grids rather than single examples.

#include <gtest/gtest.h>

#include <cmath>

#include "csecg/linalg/backend.hpp"
#include "csecg/linalg/dense_matrix.hpp"
#include "csecg/linalg/linear_operator.hpp"
#include "csecg/linalg/sparse_binary_matrix.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::linalg {
namespace {

struct SparseShape {
  std::size_t rows;
  std::size_t cols;
  std::size_t d;
};

class SparseBinaryPropertyTest
    : public ::testing::TestWithParam<SparseShape> {};

TEST_P(SparseBinaryPropertyTest, ColumnsHaveUnitNorm) {
  const auto& shape = GetParam();
  util::Rng rng(shape.rows + shape.cols);
  SparseBinaryMatrix phi(shape.rows, shape.cols, shape.d, rng);
  // Each column has d entries of value 1/sqrt(d): unit l2 norm.
  std::vector<double> unit(shape.cols, 0.0);
  std::vector<double> image(shape.rows);
  for (std::size_t c = 0; c < shape.cols; c += 7) {
    std::fill(unit.begin(), unit.end(), 0.0);
    unit[c] = 1.0;
    phi.apply<double>(unit, image);
    EXPECT_NEAR(norm2<double>(image), 1.0, 1e-12);
  }
}

TEST_P(SparseBinaryPropertyTest, AdjointIdentityHolds) {
  const auto& shape = GetParam();
  util::Rng rng(shape.rows * 31 + shape.d);
  SparseBinaryMatrix phi(shape.rows, shape.cols, shape.d, rng);
  std::vector<double> x(shape.cols);
  std::vector<double> u(shape.rows);
  for (auto& v : x) {
    v = rng.gaussian();
  }
  for (auto& v : u) {
    v = rng.gaussian();
  }
  std::vector<double> px(shape.rows);
  std::vector<double> ptu(shape.cols);
  phi.apply<double>(x, px);
  phi.apply_transpose<double>(u, ptu);
  EXPECT_NEAR(dot<double>(px, u), dot<double>(x, ptu),
              1e-9 * (1.0 + std::fabs(dot<double>(px, u))));
}

TEST_P(SparseBinaryPropertyTest, IntegerAndFloatPathsAgree) {
  const auto& shape = GetParam();
  util::Rng rng(shape.cols * 13 + shape.d);
  SparseBinaryMatrix phi(shape.rows, shape.cols, shape.d, rng);
  std::vector<std::int16_t> x(shape.cols);
  std::vector<double> xd(shape.cols);
  for (std::size_t i = 0; i < shape.cols; ++i) {
    x[i] = static_cast<std::int16_t>(rng.uniform_int(-1024, 1023));
    xd[i] = static_cast<double>(x[i]);
  }
  std::vector<std::int32_t> yi(shape.rows);
  std::vector<double> yd(shape.rows);
  phi.accumulate_integer(x, yi);
  phi.apply<double>(xd, yd);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    ASSERT_NEAR(static_cast<double>(yi[r]) * phi.value(), yd[r], 1e-8);
  }
}

TEST_P(SparseBinaryPropertyTest, LinearityOfApply) {
  const auto& shape = GetParam();
  util::Rng rng(shape.rows + 7 * shape.cols);
  SparseBinaryMatrix phi(shape.rows, shape.cols, shape.d, rng);
  std::vector<double> a(shape.cols);
  std::vector<double> b(shape.cols);
  std::vector<double> combo(shape.cols);
  for (std::size_t i = 0; i < shape.cols; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
    combo[i] = 2.0 * a[i] - 3.0 * b[i];
  }
  std::vector<double> pa(shape.rows);
  std::vector<double> pb(shape.rows);
  std::vector<double> pc(shape.rows);
  phi.apply<double>(a, pa);
  phi.apply<double>(b, pb);
  phi.apply<double>(combo, pc);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    ASSERT_NEAR(pc[r], 2.0 * pa[r] - 3.0 * pb[r], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseBinaryPropertyTest,
    ::testing::Values(SparseShape{8, 16, 2}, SparseShape{32, 64, 4},
                      SparseShape{51, 512, 12}, SparseShape{128, 512, 12},
                      SparseShape{256, 512, 12}, SparseShape{256, 512, 1},
                      SparseShape{100, 100, 100}));

// ---------------------------------------------------- kernel op counts --

TEST(KernelCountProperties, CountsScaleLinearlyWithLength) {
  std::vector<float> a(256, 1.0f);
  std::vector<float> b(256, 1.0f);
  const Backend& be = counting_simd4_backend();
  OpCounts at_64;
  OpCounts at_256;
  {
    OpCounterScope scope;
    be.dot(a.data(), b.data(), 64);
    at_64 = scope.counts();
  }
  {
    OpCounterScope scope;
    be.dot(a.data(), b.data(), 256);
    at_256 = scope.counts();
  }
  EXPECT_EQ(at_256.vector_mac4, 4 * at_64.vector_mac4);
  EXPECT_EQ(at_256.loads, 4 * at_64.loads);
}

TEST(KernelCountProperties, EveryKernelChargesSomething) {
  std::vector<float> a(32, 1.0f);
  std::vector<float> b(32, 1.0f);
  std::vector<float> c(32, 1.0f);
  std::vector<float> out(64, 0.0f);
  for (const Backend* be :
       {&counting_scalar_backend(), &counting_simd4_backend()}) {
    const auto charged = [&](auto&& fn) {
      OpCounterScope scope;
      fn();
      const auto& counts = scope.counts();
      return counts.scalar_mac + counts.scalar_op + counts.vector_mac4 +
             counts.vector_op4 + counts.loads + counts.stores;
    };
    EXPECT_GT(charged([&] { be->dot(a.data(), b.data(), 32); }), 0u);
    EXPECT_GT(charged([&] {
      be->axpy_batch(1.0f, a.data(), out.data(), 1, 32);
    }), 0u);
    EXPECT_GT(charged([&] {
      be->subtract(a.data(), b.data(), out.data(), 32);
    }), 0u);
    EXPECT_GT(charged([&] {
      be->soft_threshold(a.data(), 0.1f, out.data(), 32);
    }), 0u);
    EXPECT_GT(charged([&] {
      be->dual_band_analysis(a.data(), b.data(), c.data(), out.data(),
                             out.data() + 8, 8, 8);
    }), 0u);
    EXPECT_GT(charged([&] {
      be->dual_band_synthesis(a.data(), b.data(), c.data(), c.data(),
                              out.data(), 8, 8);
    }), 0u);
  }
}

TEST(KernelCountProperties, ScalarModeNeverEmitsVectorOps) {
  std::vector<float> a(100, 1.0f);
  std::vector<float> b(100, 1.0f);
  std::vector<float> out(100, 0.0f);
  const Backend& be = counting_scalar_backend();
  OpCounterScope scope;
  be.dot(a.data(), b.data(), 100);
  be.axpy_batch(0.5f, a.data(), out.data(), 1, 100);
  be.soft_threshold(a.data(), 0.2f, out.data(), 100);
  EXPECT_EQ(scope.counts().vector_mac4, 0u);
  EXPECT_EQ(scope.counts().vector_op4, 0u);
  EXPECT_EQ(scope.counts().leftover_lane, 0u);
}

TEST(KernelCountProperties, ZeroLengthChargesNothing) {
  std::vector<float> a(4, 1.0f);
  OpCounterScope scope;
  counting_simd4_backend().dot(a.data(), a.data(), 0);
  counting_scalar_backend().axpy_batch(1.0f, a.data(), a.data(), 1, 0);
  const auto& c = scope.counts();
  EXPECT_EQ(c.scalar_mac + c.vector_mac4 + c.loads + c.stores, 0u);
}

// --------------------------------------------- power iteration property --

class SparseOperator final : public LinearOperator<double> {
 public:
  SparseOperator(std::size_t rows, std::size_t cols, std::size_t d,
                 util::Rng& rng)
      : phi_(rows, cols, d, rng) {}
  std::size_t rows() const override { return phi_.rows(); }
  std::size_t cols() const override { return phi_.cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    phi_.apply<double>(x, y);
  }
  void apply_adjoint(std::span<const double> x,
                     std::span<double> y) const override {
    phi_.apply_transpose<double>(x, y);
  }
  const SparseBinaryMatrix& matrix() const { return phi_; }

 private:
  SparseBinaryMatrix phi_;
};

TEST(SpectralNormProperty, UpperBoundsAllRayleighQuotients) {
  util::Rng rng(77);
  SparseOperator op(64, 128, 8, rng);
  const double lambda = estimate_spectral_norm_squared(op, 200);
  // ||A x||^2 <= lambda ||x||^2 for any x (up to estimation slack).
  std::vector<double> x(128);
  std::vector<double> ax(64);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) {
      v = rng.gaussian();
    }
    op.apply(x, ax);
    const double q = std::pow(norm2<double>(std::span<const double>(ax)) /
                                  norm2<double>(std::span<const double>(x)),
                              2);
    EXPECT_LE(q, lambda * 1.0001);
  }
}

}  // namespace
}  // namespace csecg::linalg
