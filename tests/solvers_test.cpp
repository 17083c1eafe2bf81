// Unit tests for csecg::solvers — ISTA/FISTA behaviour on problems with
// known solutions, convergence-rate ordering, stopping rules, and OMP
// exact recovery.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <string>

#include "csecg/linalg/dense_matrix.hpp"
#include "csecg/linalg/kernels.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/solvers/fista.hpp"
#include "csecg/solvers/omp.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::solvers {
namespace {

template <typename T>
class DenseOp final : public linalg::LinearOperator<T> {
 public:
  explicit DenseOp(linalg::DenseMatrix<T> m) : m_(std::move(m)) {}
  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void apply(std::span<const T> x, std::span<T> y) const override {
    m_.apply(x, y);
  }
  void apply_adjoint(std::span<const T> x, std::span<T> y) const override {
    m_.apply_transpose(x, y);
  }

 private:
  linalg::DenseMatrix<T> m_;
};

template <typename T>
DenseOp<T> identity_op(std::size_t n) {
  linalg::DenseMatrix<T> m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = T{1};
  }
  return DenseOp<T>(std::move(m));
}

template <typename T>
DenseOp<T> gaussian_op(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::DenseMatrix<T> m(rows, cols);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(rows));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<T>(rng.gaussian(0.0, sigma));
    }
  }
  return DenseOp<T>(std::move(m));
}

// ----------------------------------------------------------- fista/ista --

TEST(FistaTest, IdentityOperatorGivesSoftThreshold) {
  // min ||a - y||^2 + lambda ||a||_1 has the closed form
  // a* = soft_threshold(y, lambda / 2).
  const std::size_t n = 16;
  auto op = identity_op<double>(n);
  util::Rng rng(1);
  std::vector<double> y(n);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.8;
  options.max_iterations = 500;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  EXPECT_TRUE(result.converged);
  std::vector<double> expected(n);
  linalg::soft_threshold<double>(y, 0.4, expected);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.solution[i], expected[i], 1e-6);
  }
}

TEST(FistaTest, ZeroLambdaSolvesLeastSquaresExactly) {
  // Square well-conditioned system, lambda = 0: residual must vanish.
  auto op = gaussian_op<double>(24, 24, 2);
  util::Rng rng(3);
  std::vector<double> truth(24);
  for (auto& v : truth) {
    v = rng.gaussian();
  }
  std::vector<double> y(24);
  op.apply(truth, y);
  ShrinkageOptions options;
  options.lambda = 0.0;
  options.max_iterations = 20000;
  options.tolerance = 1e-13;
  const auto result = fista<double>(op, y, options);
  EXPECT_LT(result.final_residual_norm, 1e-4);
}

TEST(FistaTest, RecoversSparseVectorFromCompressedMeasurements) {
  // The core CS promise: S-sparse truth, M ~ 4S Gaussian measurements.
  const std::size_t n = 128;
  const std::size_t m = 64;
  const std::size_t s = 8;
  auto op = gaussian_op<double>(m, n, 4);
  util::Rng rng(5);
  std::vector<double> truth(n, 0.0);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(s));
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 3.0);
  }
  std::vector<double> y(m);
  op.apply(truth, y);

  ShrinkageOptions options;
  options.lambda = 1e-4;
  options.max_iterations = 30000;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += (result.solution[i] - truth[i]) * (result.solution[i] - truth[i]);
    norm += truth[i] * truth[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

TEST(FistaTest, ObjectiveTraceIsRecordedAndBounded) {
  auto op = gaussian_op<double>(32, 64, 6);
  util::Rng rng(7);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 200;
  options.tolerance = 0.0;  // run all iterations
  options.record_objective = true;
  const auto result = fista<double>(op, y, options);
  ASSERT_EQ(result.objective_trace.size(), 200u);
  // FISTA is not monotone, but the tail must sit far below the start.
  EXPECT_LT(result.objective_trace.back(),
            result.objective_trace.front() * 0.9);
  // Final objective report matches the trace tail.
  EXPECT_NEAR(result.final_objective, result.objective_trace.back(),
              1e-6 * result.final_objective + 1e-9);
}

TEST(FistaTest, ConvergesFasterThanIsta) {
  // O(1/k^2) vs O(1/k): after the same iteration budget FISTA's objective
  // must be closer to optimal.
  auto op = gaussian_op<double>(48, 96, 8);
  util::Rng rng(9);
  std::vector<double> y(48);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.02;
  options.max_iterations = 120;
  options.tolerance = 0.0;
  options.record_objective = true;
  const auto fast = fista<double>(op, y, options);
  const auto slow = ista<double>(op, y, options);
  // Optimal objective approximated by a long FISTA run.
  ShrinkageOptions long_options = options;
  long_options.max_iterations = 20000;
  long_options.record_objective = false;
  long_options.tolerance = 1e-14;
  const double f_star = fista<double>(op, y, long_options).final_objective;
  const double gap_fast = fast.final_objective - f_star;
  const double gap_slow = slow.final_objective - f_star;
  EXPECT_LT(gap_fast, gap_slow * 0.5);
}

TEST(FistaTest, IstaObjectiveIsMonotone) {
  // Unlike FISTA, plain ISTA descends monotonically.
  auto op = gaussian_op<double>(32, 64, 10);
  util::Rng rng(11);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 150;
  options.tolerance = 0.0;
  options.record_objective = true;
  const auto result = ista<double>(op, y, options);
  for (std::size_t k = 1; k < result.objective_trace.size(); ++k) {
    ASSERT_LE(result.objective_trace[k],
              result.objective_trace[k - 1] + 1e-9);
  }
}

TEST(FistaTest, SigmaStoppingHaltsEarly) {
  auto op = gaussian_op<double>(32, 64, 12);
  util::Rng rng(13);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 5000;
  options.tolerance = 0.0;
  options.sigma = 0.5 * linalg::norm2<double>(y);
  const auto result = fista<double>(op, y, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 5000u);
  EXPECT_LE(result.final_residual_norm, *options.sigma + 1e-9);
}

TEST(FistaTest, MaxIterationsBoundsWork) {
  auto op = gaussian_op<double>(16, 32, 14);
  std::vector<double> y(16, 1.0);
  ShrinkageOptions options;
  options.lambda = 0.01;
  options.max_iterations = 7;
  options.tolerance = 0.0;
  const auto result = fista<double>(op, y, options);
  EXPECT_EQ(result.iterations, 7u);
  EXPECT_FALSE(result.converged);
}

TEST(FistaTest, ProvidedLipschitzSkipsEstimation) {
  auto op = identity_op<double>(8);
  std::vector<double> y(8, 2.0);
  ShrinkageOptions options;
  options.lambda = 0.1;
  options.lipschitz = 2.0;  // exact for the identity: L = 2 lambda_max = 2
  options.max_iterations = 200;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  EXPECT_NEAR(result.solution[0], 2.0 - 0.05, 1e-6);
}

TEST(FistaTest, FloatPathMatchesDoublePath) {
  auto opd = gaussian_op<double>(32, 64, 15);
  auto opf = gaussian_op<float>(32, 64, 15);  // same seed -> same entries
  util::Rng rng(16);
  std::vector<double> yd(32);
  std::vector<float> yf(32);
  for (std::size_t i = 0; i < 32; ++i) {
    yd[i] = rng.gaussian();
    yf[i] = static_cast<float>(yd[i]);
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  const auto rd = fista<double>(opd, yd, options);
  const auto rf = fista<float>(opf, yf, options);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(rd.solution[i], static_cast<double>(rf.solution[i]), 5e-3);
  }
}

TEST(FistaTest, RejectsBadArguments) {
  auto op = identity_op<double>(4);
  std::vector<double> y(3, 1.0);  // wrong size
  ShrinkageOptions options;
  EXPECT_THROW(fista<double>(op, y, options), Error);
  std::vector<double> y4(4, 1.0);
  options.lambda = -1.0;
  EXPECT_THROW(fista<double>(op, y4, options), Error);
  options = {};
  options.max_iterations = 0;
  EXPECT_THROW(fista<double>(op, y4, options), Error);
}

// ------------------------------------------------------------------ omp --

TEST(OmpTest, ExactRecoveryOfSparseVector) {
  const std::size_t n = 64;
  const std::size_t m = 32;
  const std::size_t s = 5;
  auto op = gaussian_op<double>(m, n, 17);
  util::Rng rng(18);
  std::vector<double> truth(n, 0.0);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(s));
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0) + (rng.sign() > 0 ? 1.0 : -1.0);
  }
  std::vector<double> y(m);
  op.apply(truth, y);
  OmpOptions options;
  options.max_support = 16;
  options.residual_tolerance = 1e-9;
  const auto result = omp(op, y, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.support.size(), s);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.solution[i], truth[i], 1e-6);
  }
}

TEST(OmpTest, ZeroMeasurementsGiveZeroSolution) {
  auto op = gaussian_op<double>(16, 32, 19);
  std::vector<double> y(16, 0.0);
  const auto result = omp(op, y, OmpOptions{});
  EXPECT_TRUE(result.converged);
  for (const auto v : result.solution) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(OmpTest, SupportCapIsRespected) {
  auto op = gaussian_op<double>(32, 64, 20);
  util::Rng rng(21);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();  // dense target: cannot converge
  }
  OmpOptions options;
  options.max_support = 6;
  options.residual_tolerance = 1e-12;
  const auto result = omp(op, y, options);
  EXPECT_LE(result.support.size(), 6u);
  EXPECT_EQ(result.iterations, result.support.size());
}

TEST(OmpTest, ResidualDecreasesMonotonically) {
  auto op = gaussian_op<double>(24, 48, 22);
  util::Rng rng(23);
  std::vector<double> y(24);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  double previous = linalg::norm2<double>(y);
  for (std::size_t k = 1; k <= 8; ++k) {
    OmpOptions options;
    options.max_support = k;
    options.residual_tolerance = 0.0;
    const auto result = omp(op, y, options);
    EXPECT_LE(result.final_residual_norm, previous + 1e-9);
    previous = result.final_residual_norm;
  }
}

TEST(OmpTest, SupportIndicesAreDistinct) {
  auto op = gaussian_op<double>(32, 64, 24);
  util::Rng rng(25);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  OmpOptions options;
  options.max_support = 20;
  options.residual_tolerance = 0.0;
  const auto result = omp(op, y, options);
  std::vector<std::size_t> sorted = result.support;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

// --------------------------------------------- workspace and op mixes --

TEST(FistaTest, WorkspaceOverloadMatchesByValueAndReusesBuffers) {
  auto op = gaussian_op<double>(32, 64, 7);
  std::vector<double> y(32);
  {
    std::vector<double> truth(64, 0.0);
    truth[3] = 2.0;
    truth[40] = -1.5;
    op.apply(truth, y);
  }
  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 500;
  options.tolerance = 1e-10;

  const auto by_value = fista<double>(op, y, options);
  SolverWorkspace workspace;
  const auto& in_place = fista<double>(op, y, options, workspace);
  EXPECT_EQ(in_place.iterations, by_value.iterations);
  EXPECT_EQ(in_place.converged, by_value.converged);
  ASSERT_EQ(in_place.solution.size(), by_value.solution.size());
  for (std::size_t i = 0; i < by_value.solution.size(); ++i) {
    EXPECT_EQ(in_place.solution[i], by_value.solution[i]) << "index " << i;
  }

  // A second same-shape solve must reuse every buffer: no reallocation
  // in steady state (the fleet worker / bench_fleet contract).
  auto& buffers = workspace.buffers<double>();
  const double* yk = buffers.yk.data();
  const double* residual = buffers.residual.data();
  const double* gradient = buffers.gradient.data();
  const double* candidate = buffers.candidate.data();
  const double* a_next = buffers.a_next.data();
  const double* solution = buffers.results[0].solution.data();
  fista<double>(op, y, options, workspace);
  EXPECT_EQ(buffers.yk.data(), yk);
  EXPECT_EQ(buffers.residual.data(), residual);
  EXPECT_EQ(buffers.gradient.data(), gradient);
  EXPECT_EQ(buffers.candidate.data(), candidate);
  EXPECT_EQ(buffers.a_next.data(), a_next);
  EXPECT_EQ(buffers.results[0].solution.data(), solution);
}

TEST(KernelOpMixTest, CopyIsPureMemoryTraffic) {
  // copy moves n elements and must charge exactly n loads + n stores —
  // no ALU work in either schedule. FISTA's candidate/yk copies route
  // through this kernel so the cycle model sees them.
  std::vector<float> x(16, 1.5f);
  std::vector<float> out(16, 0.0f);
  for (const linalg::Backend* be : {&linalg::counting_scalar_backend(),
                                    &linalg::counting_simd4_backend()}) {
    linalg::OpCounterScope scope;
    be->copy(x.data(), out.data(), x.size());
    const auto& counts = scope.counts();
    EXPECT_EQ(counts.scalar_mac, 0u);
    EXPECT_EQ(counts.vector_mac4, 0u);
    EXPECT_EQ(counts.scalar_op, 0u);
    EXPECT_EQ(counts.vector_op4, 0u);
    EXPECT_EQ(counts.loads, x.size());
    EXPECT_EQ(counts.stores, x.size());
    EXPECT_EQ(out, x);
  }
}

TEST(KernelOpMixTest, FistaPerIterationCostIsStable) {
  // With a fixed Lipschitz constant and convergence disabled, the op mix
  // must be affine in the iteration count: counts(k+1) - counts(k) is the
  // same for every k. A raw (uncounted) copy or a stray per-iteration
  // spectral-norm estimate would break this — both were real bugs.
  auto op = gaussian_op<float>(16, 32, 11);
  std::vector<float> y(16, 1.0f);
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.tolerance = 0.0;  // never converge: iterations == max_iterations
  options.lipschitz = 8.0;

  const auto run = [&](std::size_t iterations, const linalg::Backend& be) {
    options.max_iterations = iterations;
    options.backend = &be;
    linalg::OpCounterScope scope;
    const auto result = fista<float>(op, y, options);
    EXPECT_EQ(result.iterations, iterations);
    return scope.counts();
  };

  for (const linalg::CountingBackend* be :
       {&linalg::counting_scalar_backend(),
        &linalg::counting_simd4_backend()}) {
    const auto c1 = run(1, *be);
    const auto c2 = run(2, *be);
    const auto c3 = run(3, *be);
    const auto delta = [](const linalg::OpCounts& hi,
                          const linalg::OpCounts& lo) {
      return std::array<std::uint64_t, 7>{
          hi.scalar_mac - lo.scalar_mac, hi.scalar_op - lo.scalar_op,
          hi.vector_mac4 - lo.vector_mac4, hi.vector_op4 - lo.vector_op4,
          hi.leftover_lane - lo.leftover_lane, hi.loads - lo.loads,
          hi.stores - lo.stores};
    };
    const auto step_a = delta(c2, c1);
    const auto step_b = delta(c3, c2);
    EXPECT_EQ(step_a, step_b) << "backend " << be->name();
    // The iteration writes at least candidate (copy), the thresholded
    // iterate, the momentum extrapolation and the operator outputs.
    const std::size_t n = op.cols();
    EXPECT_GE(step_a[6], 3 * n);
    // The scalar schedule must not charge vector lanes and vice versa.
    if (be->schedule() == linalg::KernelMode::kScalar) {
      EXPECT_EQ(step_a[2], 0u);
      EXPECT_EQ(step_a[3], 0u);
    } else {
      EXPECT_GT(step_a[2] + step_a[3], 0u);
    }
  }
}

TEST(OmpTest, RejectsBadArguments) {
  auto op = gaussian_op<double>(8, 16, 26);
  std::vector<double> wrong(7, 1.0);
  EXPECT_THROW(omp(op, wrong, OmpOptions{}), Error);
  std::vector<double> y(8, 1.0);
  OmpOptions options;
  options.max_support = 0;
  EXPECT_THROW(omp(op, y, options), Error);
}

// ------------------------------------------------ prior-aware solving --

TEST(FistaPrior, WarmStartCutsIterationsAndLandsOnTheSameSolution) {
  // Solve once cold, then re-solve the same problem seeded with the cold
  // solution: the warm solve must converge in a fraction of the cold
  // iteration count and land on (essentially) the same minimiser. This
  // is the decode-path contract — window k's solution seeds window k+1.
  auto op = gaussian_op<double>(64, 128, 30);
  util::Rng rng(31);
  std::vector<double> truth(128, 0.0);
  const auto support = rng.sample_without_replacement(128, 10);
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0);
  }
  std::vector<double> y(64);
  op.apply(truth, y);

  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 20000;
  options.tolerance = 1e-9;
  const auto cold = fista<double>(op, y, options);
  EXPECT_TRUE(cold.converged);

  options.warm_start = cold.solution;
  const auto warm = fista<double>(op, y, options);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations / 4);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(warm.solution[i], cold.solution[i], 1e-5) << "index " << i;
  }
}

TEST(FistaPrior, WarmStartRejectsWrongSize) {
  auto op = identity_op<double>(8);
  std::vector<double> y(8, 1.0);
  std::vector<double> prior(7, 0.0);  // wrong length
  ShrinkageOptions options;
  options.warm_start = prior;
  EXPECT_THROW(fista<double>(op, y, options), Error);
  EXPECT_THROW(ista<double>(op, y, options), Error);
}

TEST(FistaPrior, SupportToleranceStopsEarlyOnceSupportLocksIn) {
  // With the support-aware relaxation on, the solve halts earlier than
  // the strict run once the nonzero pattern is stable, and the relaxed
  // solution still matches the strict one to the relaxed threshold.
  auto op = gaussian_op<double>(48, 96, 33);
  util::Rng rng(34);
  std::vector<double> truth(96, 0.0);
  const auto support = rng.sample_without_replacement(96, 6);
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0);
  }
  std::vector<double> y(48);
  op.apply(truth, y);

  ShrinkageOptions strict;
  strict.lambda = 1e-3;
  strict.max_iterations = 50000;
  strict.tolerance = 1e-10;
  const auto full = fista<double>(op, y, strict);
  EXPECT_TRUE(full.converged);

  ShrinkageOptions relaxed = strict;
  relaxed.support_tolerance = 1e-5;
  const auto early = fista<double>(op, y, relaxed);
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.iterations, full.iterations);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(early.solution[i], full.solution[i], 5e-3) << "index " << i;
  }
}

// ----------------------------------------------------- panel of rows --

// Packs `batch` distinct compressed-sensing problems that share one
// operator, with per-problem measurement energy spread so the rows
// converge at visibly different iteration counts (the frozen-row path).
struct BatchProblem {
  DenseOp<float> op;
  std::vector<float> y_flat;
  std::vector<double> lambdas;
  std::size_t batch;
  std::size_t m;
  std::size_t n;
};

BatchProblem make_batch_problem(std::size_t batch, std::uint64_t seed) {
  const std::size_t m = 32;
  const std::size_t n = 64;
  BatchProblem p{gaussian_op<float>(m, n, seed), {}, {}, batch, m, n};
  util::Rng rng(seed + 1);
  p.y_flat.resize(batch * m);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<float> truth(n, 0.0f);
    const auto support = rng.sample_without_replacement(
        static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(4 + b));
    for (const auto idx : support) {
      truth[idx] = static_cast<float>(rng.gaussian(0.0, 1.0 + b));
    }
    p.op.apply(truth,
               std::span<float>(p.y_flat.data() + b * m, m));
    p.lambdas.push_back(1e-3 * (1.0 + 0.5 * b));
  }
  return p;
}

// Runs each batch row through the sequential solver with the same
// options and compares the batched results bitwise — the fleet decode
// parity contract under whichever option set \p options carries.
void expect_batch_matches_sequential(const BatchProblem& p,
                                     ShrinkageOptions options) {
  SolverWorkspace batch_ws;
  const auto batched =
      fista_panel<float>(p.op, p.y_flat, p.lambdas, 1, options, batch_ws);
  ASSERT_EQ(batched.size(), p.batch);
  const std::span<const double> warm_all = options.warm_start;
  for (std::size_t b = 0; b < p.batch; ++b) {
    SCOPED_TRACE("row " + std::to_string(b));
    ShrinkageOptions row_options = options;
    row_options.lambda = p.lambdas[b];
    row_options.warm_start =
        warm_all.empty() ? std::span<const double>{}
                         : warm_all.subspan(b * p.n, p.n);
    const auto sequential = fista<float>(
        p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m),
        row_options);
    EXPECT_EQ(batched[b].iterations, sequential.iterations);
    EXPECT_EQ(batched[b].converged, sequential.converged);
    ASSERT_EQ(batched[b].solution.size(), sequential.solution.size());
    for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
      ASSERT_EQ(batched[b].solution[i], sequential.solution[i])
          << "coefficient " << i;  // bitwise
    }
    EXPECT_EQ(batched[b].objective_trace, sequential.objective_trace);
    EXPECT_EQ(batched[b].final_residual_norm, sequential.final_residual_norm);
    EXPECT_EQ(batched[b].final_objective, sequential.final_objective);
  }
}

// Approximation-band-style weights: the first eighth of the coefficients
// penalised ten times less, as PriorPolicy::weighted_l1 does.
std::vector<double> approx_band_weights(std::size_t n) {
  std::vector<double> weights(n, 1.0);
  std::fill_n(weights.begin(), n / 8, 0.1);
  return weights;
}

TEST(FistaBatch, AdaptiveRestartMatchesSequentialBitwise) {
  // The restart decision is per-row state (each row's own momentum
  // scalar and alignment test), so restarting rows must not perturb
  // their neighbours.
  const auto p = make_batch_problem(4, 40);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, WarmPriorsMatchSequentialBitwise) {
  // Per-row priors: solve every row cold first, then re-solve the batch
  // seeded with those solutions and check each row against a warm
  // sequential run.
  const auto p = make_batch_problem(3, 44);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.support_tolerance = 1e-5;

  std::vector<double> priors(p.batch * p.n);
  for (std::size_t b = 0; b < p.batch; ++b) {
    ShrinkageOptions cold = options;
    cold.lambda = p.lambdas[b];
    const auto r = fista<float>(
        p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m), cold);
    for (std::size_t i = 0; i < p.n; ++i) {
      priors[b * p.n + i] = static_cast<double>(r.solution[i]);
    }
  }
  options.warm_start = priors;
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, WeightedL1MatchesSequentialBitwise) {
  // Per-coefficient weights ride the panel: each row runs the weighted
  // prox with its own lambda-scaled thresholds.
  const auto p = make_batch_problem(4, 56);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.weights = approx_band_weights(p.n);
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, EveryPanelWidthMatchesLoneSolvesBitwise) {
  // The bookkeeping sweep runs four slots per pass plus a 1-3 slot tail,
  // and problems that stop compact out of the middle of a block. With
  // restart, the support tolerance and weights all on, each of 1-9
  // problems must still take exactly the trajectory it takes alone.
  for (std::size_t problems = 1; problems <= 9; ++problems) {
    SCOPED_TRACE("problems " + std::to_string(problems));
    const auto p = make_batch_problem(problems, 60 + problems);
    ShrinkageOptions options;
    options.max_iterations = 400;
    options.tolerance = 1e-6;
    options.lipschitz = 16.0;
    options.adaptive_restart = true;
    options.support_tolerance = 1e-3;
    options.weights = approx_band_weights(p.n);
    expect_batch_matches_sequential(p, options);

    SolverWorkspace ws;
    const auto results =
        fista_panel<float>(p.op, p.y_flat, p.lambdas, 1, options, ws);
    std::set<std::size_t> stops;
    for (const auto& r : results) {
      stops.insert(r.iterations);
    }
    if (problems >= 4) {
      EXPECT_GT(stops.size(), 1u) << "no problem stopped mid-panel";
    }
  }
}

TEST(FistaBatch, SigmaStoppingMatchesSequentialBitwise) {
  // The eq-2 residual stop is per row: a row that reaches the sigma ball
  // freezes at that iteration while its neighbours run on.
  const auto p = make_batch_problem(4, 58);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-12;  // sigma, not the iterate change, stops rows
  options.lipschitz = 16.0;
  options.sigma = 0.05;
  expect_batch_matches_sequential(p, options);
  SolverWorkspace ws;
  for (const auto& row :
       fista_panel<float>(p.op, p.y_flat, p.lambdas, 1, options, ws)) {
    EXPECT_TRUE(row.converged);
    EXPECT_LE(row.final_residual_norm, *options.sigma);
  }
}

TEST(FistaBatch, ObjectiveRecordingMatchesSequentialBitwise) {
  // Each row records its own objective trace, up to its own stop.
  const auto p = make_batch_problem(4, 60);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.record_objective = true;
  options.weights = approx_band_weights(p.n);
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, WarmPriorRejectsWrongSize) {
  const auto p = make_batch_problem(2, 46);
  ShrinkageOptions options;
  options.lipschitz = 16.0;
  std::vector<double> prior(p.n, 0.0);  // one row's worth, need batch * n
  options.warm_start = prior;
  SolverWorkspace ws;
  EXPECT_THROW(
      fista_panel<float>(p.op, p.y_flat, p.lambdas, 1, options, ws), Error);
}

TEST(FistaBatch, FrozenRowsStopBeingCharged) {
  // Rows converge at different iteration counts; a frozen row must drop
  // out of the sweep entirely, so the batch's total op mix equals the
  // sum of the per-row sequential solves — not the lock-step rectangle
  // batch * slowest_row the old pricing charged. The weighted prox is a
  // hand-charged loop rather than a backend kernel, so a weighted batch
  // must price the same way.
  const auto p = make_batch_problem(4, 48);
  ShrinkageOptions uniform;
  uniform.max_iterations = 4000;
  uniform.tolerance = 1e-4;
  uniform.lipschitz = 16.0;
  uniform.adaptive_restart = true;
  uniform.backend = &linalg::counting_scalar_backend();
  ShrinkageOptions weighted = uniform;
  weighted.weights = approx_band_weights(p.n);

  for (const ShrinkageOptions& options : {uniform, weighted}) {
    SCOPED_TRACE(options.weights.empty() ? "uniform" : "weighted");
    linalg::OpCounts sequential_total;
    std::vector<std::size_t> iterations(p.batch);
    {
      linalg::OpCounterScope scope;
      for (std::size_t b = 0; b < p.batch; ++b) {
        ShrinkageOptions row = options;
        row.lambda = p.lambdas[b];
        iterations[b] = fista<float>(
            p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m),
            row).iterations;
      }
      sequential_total = scope.counts();
    }
    // The frozen-row claim is only interesting if the rows actually stop
    // at different iterations.
    EXPECT_NE(*std::min_element(iterations.begin(), iterations.end()),
              *std::max_element(iterations.begin(), iterations.end()));

    SolverWorkspace ws;
    linalg::OpCounterScope scope;
    fista_panel<float>(p.op, p.y_flat, p.lambdas, 1, options, ws);
    const auto& batch_counts = scope.counts();
    EXPECT_EQ(batch_counts.scalar_mac, sequential_total.scalar_mac);
    EXPECT_EQ(batch_counts.scalar_op, sequential_total.scalar_op);
    EXPECT_EQ(batch_counts.loads, sequential_total.loads);
    EXPECT_EQ(batch_counts.stores, sequential_total.stores);
  }
}

// ---------------------------------------------------- panel of groups --

// leads == 1 is the wire-compatibility contract: a lead group of one
// must be THE sequential solve, bitwise — same iterates, same restart
// decisions, same stopping tick — or single-lead decodes would change
// under the group code path.
TEST(FistaGroup, LeadsOneMatchesSequentialBitwise) {
  const auto p = make_batch_problem(1, 52);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.lambda = p.lambdas[0];

  SolverWorkspace ws;
  const auto group = fista_panel<float>(
      p.op, std::span<const float>(p.y_flat),
      std::span<const double>(&options.lambda, 1), 1, options, ws);
  ASSERT_EQ(group.size(), 1u);
  const auto sequential =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  EXPECT_EQ(group[0].iterations, sequential.iterations);
  EXPECT_EQ(group[0].converged, sequential.converged);
  ASSERT_EQ(group[0].solution.size(), sequential.solution.size());
  for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
    ASSERT_EQ(group[0].solution[i], sequential.solution[i])
        << "coefficient " << i;  // bitwise
  }
}

TEST(FistaGroup, LeadsOneWarmStartMatchesSequentialBitwise) {
  const auto p = make_batch_problem(1, 54);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.support_tolerance = 1e-5;
  options.lambda = p.lambdas[0];

  const auto cold =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  std::vector<double> prior(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    prior[i] = static_cast<double>(cold.solution[i]);
  }
  options.warm_start = prior;

  SolverWorkspace ws;
  const auto group = fista_panel<float>(
      p.op, std::span<const float>(p.y_flat),
      std::span<const double>(&options.lambda, 1), 1, options, ws);
  ASSERT_EQ(group.size(), 1u);
  const auto sequential =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  EXPECT_EQ(group[0].iterations, sequential.iterations);
  ASSERT_EQ(group[0].solution.size(), sequential.solution.size());
  for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
    ASSERT_EQ(group[0].solution[i], sequential.solution[i])
        << "coefficient " << i;
  }
}

// Leads sharing wavelet support reinforce each other under the l2,1
// penalty: the joint solve must recover every lead of a shared-support
// group to small error from the same measurement budget.
TEST(FistaGroup, RecoversSharedSupportGroupJointly) {
  const std::size_t m = 32;
  const std::size_t n = 64;
  const std::size_t leads = 3;
  const auto op = gaussian_op<float>(m, n, 60);
  util::Rng rng(61);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), 5);
  std::vector<std::vector<float>> truth(leads, std::vector<float>(n, 0.0f));
  for (const auto idx : support) {
    const double base = rng.gaussian(0.0, 1.5);
    for (std::size_t l = 0; l < leads; ++l) {
      // Same support, per-lead amplitude — the correlated-lead model.
      truth[l][idx] = static_cast<float>(base * (1.0 - 0.2 * l));
    }
  }
  std::vector<float> y_flat(leads * m);
  for (std::size_t l = 0; l < leads; ++l) {
    op.apply(truth[l], std::span<float>(y_flat.data() + l * m, m));
  }
  ShrinkageOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-8;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.lambda = 1e-3;
  SolverWorkspace ws;
  const auto results =
      fista_panel<float>(op, std::span<const float>(y_flat),
                         std::span<const double>(&options.lambda, 1), leads,
                         options, ws);
  ASSERT_EQ(results.size(), leads);
  for (std::size_t l = 0; l < leads; ++l) {
    SCOPED_TRACE("lead " + std::to_string(l));
    double err2 = 0.0, sig2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = results[l].solution[i] - truth[l][i];
      err2 += d * d;
      sig2 += static_cast<double>(truth[l][i]) * truth[l][i];
    }
    EXPECT_LT(std::sqrt(err2 / sig2), 0.05);
  }
}

// Several lead groups share one panel the way batched windows do: each
// group keeps its own momentum and stop, so it lands bitwise where it
// would solved alone.
TEST(FistaGroup, GroupsInOnePanelMatchEachGroupAlone) {
  const auto p = make_batch_problem(4, 64);  // two groups of two leads
  constexpr std::size_t kLeads = 2;
  ShrinkageOptions options;
  options.max_iterations = 4000;
  options.tolerance = 1e-5;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  const std::vector<double> lambdas = {1e-3, 4e-3};

  SolverWorkspace panel_ws;
  const auto panel = fista_panel<float>(p.op, p.y_flat, lambdas, kLeads,
                                        options, panel_ws);
  ASSERT_EQ(panel.size(), p.batch);
  for (std::size_t g = 0; g < lambdas.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    SolverWorkspace ws;
    const auto alone = fista_panel<float>(
        p.op,
        std::span<const float>(p.y_flat.data() + g * kLeads * p.m,
                               kLeads * p.m),
        std::span<const double>(&lambdas[g], 1), kLeads, options, ws);
    for (std::size_t l = 0; l < kLeads; ++l) {
      const auto& row = panel[g * kLeads + l];
      EXPECT_EQ(row.iterations, alone[l].iterations);
      EXPECT_EQ(row.converged, alone[l].converged);
      ASSERT_EQ(row.solution, alone[l].solution);  // bitwise
    }
  }
  // The groups must stop at different iterations, or no group froze
  // while its neighbour ran on.
  EXPECT_TRUE(panel[0].converged);
  EXPECT_TRUE(panel[kLeads].converged);
  EXPECT_NE(panel[0].iterations, panel[kLeads].iterations);
}

TEST(FistaGroup, RejectsUnsupportedOptionsAndBadSizes) {
  const auto op = gaussian_op<float>(8, 16, 62);
  std::vector<float> y(16, 0.5f);  // leads 2 x m 8
  SolverWorkspace ws;
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<float> short_y(12, 0.5f);  // not leads * m
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(short_y),
                                    std::span<const double>(&options.lambda, 1),
                                    2, options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<double> weights(16, 1.0);
    options.weights = weights;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y),
                                    std::span<const double>(&options.lambda, 1),
                                    2, options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    options.sigma = 1.0;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y),
                                    std::span<const double>(&options.lambda, 1),
                                    2, options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<double> prior(16, 0.0);  // need leads * n = 32
    options.warm_start = prior;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y),
                                    std::span<const double>(&options.lambda, 1),
                                    2, options, ws),
                 Error);
  }
}

}  // namespace
}  // namespace csecg::solvers
