// The Backend dispatch layer's contract tests: both kernel sets agree
// with the double-precision reference on every kernel (including the
// awkward non-multiple-of-4 tails), batched kernels match their
// row-by-row definition bitwise, and the counting decorator reproduces
// the exact §IV-B operation mix the instrumented seed kernels recorded —
// the goldens that anchor the paper's 2.43x speed-up reproduction —
// whatever kernel set it wraps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "csecg/core/decoder.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/solvers/workspace.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::linalg {
namespace {

std::vector<const Backend*> all_backends() {
  return {&reference_backend(), &native_backend()};
}

// ------------------------------------------------------------- parity --

class BackendParityTest : public ::testing::TestWithParam<std::size_t> {};

// Every float backend against the double reference loops. Reductions get
// an n-scaled tolerance (float accumulation order differs per kernel
// set); elementwise kernels get a per-element one.
TEST_P(BackendParityTest, FloatKernelsMatchDoubleReference) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  std::vector<double> ad(n), bd(n);
  std::vector<float> af(n), bf(n);
  for (std::size_t i = 0; i < n; ++i) {
    af[i] = static_cast<float>(rng.gaussian());
    bf[i] = static_cast<float>(rng.gaussian());
    ad[i] = static_cast<double>(af[i]);
    bd[i] = static_cast<double>(bf[i]);
  }
  const Backend& ref = reference_backend();
  const double reduce_tol = 1e-6 * static_cast<double>(n + 8);
  const double elem_tol = 1e-5;

  const double dot_ref = ref.dot(ad.data(), bd.data(), n);
  const double norm1_ref = ref.norm1(ad.data(), n);
  const double inf_ref = ref.norm_inf(ad.data(), n);
  std::vector<double> axpy_ref(bd);
  ref.axpy_batch(0.75, ad.data(), axpy_ref.data(), 1, n);
  std::vector<double> sub_ref(n);
  ref.subtract(ad.data(), bd.data(), sub_ref.data(), n);
  std::vector<double> soft_ref(n);
  ref.soft_threshold(ad.data(), 0.3, soft_ref.data(), n);

  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    EXPECT_NEAR(be->dot(af.data(), bf.data(), n), dot_ref,
                reduce_tol * (1.0 + std::fabs(dot_ref)));
    EXPECT_NEAR(be->norm1(af.data(), n), norm1_ref,
                reduce_tol * (1.0 + norm1_ref));
    EXPECT_NEAR(be->norm_inf(af.data(), n), inf_ref, 1e-6);
    EXPECT_NEAR(be->norm2_squared(af.data(), n),
                ref.norm2_squared(ad.data(), n),
                reduce_tol * (1.0 + ref.norm2_squared(ad.data(), n)));

    std::vector<float> out(bf);
    be->axpy_batch(0.75f, af.data(), out.data(), 1, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], axpy_ref[i], elem_tol) << "axpy i=" << i;
    }
    be->subtract(af.data(), bf.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], sub_ref[i], elem_tol) << "subtract i=" << i;
    }
    be->soft_threshold(af.data(), 0.3f, out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], soft_ref[i], elem_tol) << "soft_threshold i=" << i;
    }
    std::vector<float> copied(n);
    be->copy(af.data(), copied.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(copied[i], af[i]) << "copy i=" << i;
    }
  }
}

// Double kernels of every backend against the double reference — the
// arithmetic is identical up to accumulation order, so the corridor is
// near machine epsilon.
TEST_P(BackendParityTest, DoubleKernelsMatchReference) {
  const std::size_t n = GetParam();
  util::Rng rng(2000 + n);
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
  }
  const Backend& ref = reference_backend();
  const double tol = 1e-13 * static_cast<double>(n + 8);
  const double dot_ref = ref.dot(a.data(), b.data(), n);
  std::vector<double> soft_ref(n);
  ref.soft_threshold(a.data(), 0.25, soft_ref.data(), n);
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    EXPECT_NEAR(be->dot(a.data(), b.data(), n), dot_ref,
                tol * (1.0 + std::fabs(dot_ref)));
    EXPECT_NEAR(be->norm1(a.data(), n), ref.norm1(a.data(), n),
                tol * (1.0 + ref.norm1(a.data(), n)));
    EXPECT_EQ(be->norm_inf(a.data(), n), ref.norm_inf(a.data(), n));
    std::vector<double> out(b);
    be->axpy_batch(-0.5, a.data(), out.data(), 1, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], b[i] - 0.5 * a[i], 1e-15 * (1.0 + std::fabs(b[i])))
          << i;
    }
    be->soft_threshold(a.data(), 0.25, out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], soft_ref[i]) << i;
    }
  }
}

// The filter-bank kernels, float against double reference.
TEST_P(BackendParityTest, DualBandKernelsMatchReference) {
  const std::size_t half_n = GetParam();
  const std::size_t taps = 8;
  util::Rng rng(3000 + half_n);
  const std::size_t ext_n = 2 * half_n + taps - 1;
  std::vector<double> ext_d(ext_n), h0_d(taps), h1_d(taps);
  std::vector<float> ext_f(ext_n), h0_f(taps), h1_f(taps);
  for (std::size_t i = 0; i < ext_n; ++i) {
    ext_f[i] = static_cast<float>(rng.gaussian());
    ext_d[i] = static_cast<double>(ext_f[i]);
  }
  for (std::size_t j = 0; j < taps; ++j) {
    h0_f[j] = static_cast<float>(rng.gaussian());
    h1_f[j] = static_cast<float>(rng.gaussian());
    h0_d[j] = static_cast<double>(h0_f[j]);
    h1_d[j] = static_cast<double>(h1_f[j]);
  }
  const Backend& ref = reference_backend();
  const double tol = 1e-4;

  std::vector<double> a_ref(half_n), d_ref(half_n);
  ref.dual_band_analysis(ext_d.data(), h0_d.data(), h1_d.data(), a_ref.data(),
                         d_ref.data(), half_n, taps);
  std::vector<double> syn_ref(ext_n, 0.0);
  ref.dual_band_synthesis(a_ref.data(), d_ref.data(), h0_d.data(),
                          h1_d.data(), syn_ref.data(), half_n, taps);

  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> lo(half_n), hi(half_n);
    be->dual_band_analysis(ext_f.data(), h0_f.data(), h1_f.data(), lo.data(),
                           hi.data(), half_n, taps);
    for (std::size_t i = 0; i < half_n; ++i) {
      ASSERT_NEAR(lo[i], a_ref[i], tol) << "analysis a i=" << i;
      ASSERT_NEAR(hi[i], d_ref[i], tol) << "analysis d i=" << i;
    }
    std::vector<float> lo_in(half_n), hi_in(half_n);
    for (std::size_t i = 0; i < half_n; ++i) {
      lo_in[i] = static_cast<float>(a_ref[i]);
      hi_in[i] = static_cast<float>(d_ref[i]);
    }
    std::vector<float> syn(ext_n, 0.0f);
    be->dual_band_synthesis(lo_in.data(), hi_in.data(), h0_f.data(),
                            h1_f.data(), syn.data(), half_n, taps);
    for (std::size_t i = 0; i < ext_n; ++i) {
      ASSERT_NEAR(syn[i], syn_ref[i], tol) << "synthesis i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BackendParityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 17,
                                           31, 64, 100, 255, 256, 257, 512));

// ---------------------------------------------- filter-bank bit pinning --

// Index of the first element whose bits differ (a.size() if none), so
// -0 against +0 counts as a mismatch.
template <typename T>
std::size_t first_bit_mismatch(const std::vector<T>& a,
                               const std::vector<T>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
      return i;
    }
  }
  return a.size();
}

// Both kernel sets give the reference's bits for the two filter-bank
// kernels: analysis sums each output from zero in ascending tap order, and
// synthesis adds each cell's terms onto its current value in ascending
// output order, whatever that value is. Odd lengths and levels shorter
// than a vector block cover the wide kernels' scalar edges.
template <typename T>
void check_dual_band_bits() {
  const Backend& ref = reference_backend();
  for (const std::size_t taps : {2, 4, 7, 8, 12, 20}) {
    for (const std::size_t half_n : {1, 2, 3, 5, 8, 9, 17, 33, 256}) {
      SCOPED_TRACE(::testing::Message()
                   << "taps=" << taps << " half_n=" << half_n);
      util::Rng rng(5000 + 31 * taps + half_n);
      const std::size_t ext_n = 2 * half_n + taps - 1;
      auto draw = [&rng](std::size_t n) {
        std::vector<T> v(n);
        for (auto& x : v) {
          x = static_cast<T>(rng.gaussian());
        }
        return v;
      };
      const auto ext = draw(ext_n);
      const auto h0 = draw(taps);
      const auto h1 = draw(taps);
      const auto approx = draw(half_n);
      const auto detail = draw(half_n);
      const auto x_init = draw(ext_n);

      std::vector<T> a_ref(half_n), d_ref(half_n);
      ref.dual_band_analysis(ext.data(), h0.data(), h1.data(), a_ref.data(),
                             d_ref.data(), half_n, taps);
      std::vector<T> syn_ref(x_init);
      ref.dual_band_synthesis(approx.data(), detail.data(), h0.data(),
                              h1.data(), syn_ref.data(), half_n, taps);
      for (const Backend* be : all_backends()) {
        SCOPED_TRACE(be->name());
        std::vector<T> a(half_n), d(half_n);
        be->dual_band_analysis(ext.data(), h0.data(), h1.data(), a.data(),
                               d.data(), half_n, taps);
        EXPECT_EQ(first_bit_mismatch(a, a_ref), half_n) << "analysis a";
        EXPECT_EQ(first_bit_mismatch(d, d_ref), half_n) << "analysis d";
        std::vector<T> syn(x_init);
        be->dual_band_synthesis(approx.data(), detail.data(), h0.data(),
                                h1.data(), syn.data(), half_n, taps);
        EXPECT_EQ(first_bit_mismatch(syn, syn_ref), ext_n) << "synthesis";
      }
    }
  }
}

TEST(BackendFilterBankBits, DualBandKernelsAreBitwiseReferenceFloat) {
  check_dual_band_bits<float>();
}

TEST(BackendFilterBankBits, DualBandKernelsAreBitwiseReferenceDouble) {
  check_dual_band_bits<double>();
}

// One row of the transform written the plain way over the reference
// kernels: a modulo periodic extension, a zero-filled level buffer and a
// modulo tail fold in ascending position order. The transform's glue must
// keep exactly this summation order.
template <typename T>
void plain_transform(const dsp::Wavelet& wavelet, int levels,
                     const T* in, std::size_t n, T* fwd, T* inv) {
  const Backend& ref = reference_backend();
  const auto h_d = wavelet.analysis_lowpass();
  const auto g_d = wavelet.analysis_highpass();
  const std::vector<T> h(h_d.begin(), h_d.end());
  const std::vector<T> g(g_d.begin(), g_d.end());
  const std::size_t taps = h.size();

  std::vector<T> approx(in, in + n);
  std::size_t len = n;
  for (int level = 0; level < levels; ++level) {
    const std::size_t half = len / 2;
    std::vector<T> ext(len + taps - 1);
    for (std::size_t i = 0; i < ext.size(); ++i) {
      ext[i] = approx[i % len];
    }
    std::vector<T> next(half);
    ref.dual_band_analysis(ext.data(), h.data(), g.data(), next.data(),
                           fwd + half, half, taps);
    approx = next;
    len = half;
  }
  std::copy(approx.begin(), approx.end(), fwd);

  approx.assign(in, in + (n >> levels));
  for (std::size_t half = n >> levels; half < n; half *= 2) {
    const std::size_t len2 = 2 * half;
    std::vector<T> x_ext(len2 + taps - 1, T{});
    ref.dual_band_synthesis(approx.data(), in + half, h.data(), g.data(),
                            x_ext.data(), half, taps);
    std::vector<T> next(x_ext.begin(), x_ext.begin() + len2);
    for (std::size_t i = len2; i < x_ext.size(); ++i) {
      next[i % len2] += x_ext[i];
    }
    approx = next;
  }
  std::copy(approx.begin(), approx.end(), inv);
}

// The whole transform, single-row and panel, gives the plain definition's
// bits on every backend. db10 32/4 has levels where taps - 1 > n, so the
// periodic extension and the tail fold wrap more than once.
template <typename T>
void check_wavelet_transform_bits() {
  struct Case {
    const char* wavelet;
    std::size_t length;
    int levels;
  };
  for (const Case& c : {Case{"db4", 512, 5}, Case{"haar", 64, 6},
                        Case{"db10", 32, 4}}) {
    const dsp::Wavelet wavelet = dsp::Wavelet::from_name(c.wavelet);
    const dsp::WaveletTransform wt(wavelet, c.length, c.levels);
    const std::size_t n = c.length;
    for (const std::size_t batch : {1, 4, 5}) {
      SCOPED_TRACE(::testing::Message() << c.wavelet << " " << n << "/"
                                        << c.levels << " batch=" << batch);
      util::Rng rng(6000 + n + batch);
      std::vector<T> in(batch * n);
      for (auto& x : in) {
        x = static_cast<T>(rng.gaussian());
      }
      std::vector<T> fwd_ref(batch * n), inv_ref(batch * n);
      for (std::size_t b = 0; b < batch; ++b) {
        plain_transform(wavelet, c.levels, in.data() + b * n, n,
                        fwd_ref.data() + b * n, inv_ref.data() + b * n);
      }
      for (const Backend* be : all_backends()) {
        SCOPED_TRACE(be->name());
        std::vector<T> fwd(batch * n), inv(batch * n);
        for (std::size_t b = 0; b < batch; ++b) {
          const std::span<const T> row(in.data() + b * n, n);
          wt.forward<T>(row, std::span<T>(fwd.data() + b * n, n), *be);
          wt.inverse<T>(row, std::span<T>(inv.data() + b * n, n), *be);
        }
        EXPECT_EQ(first_bit_mismatch(fwd, fwd_ref), batch * n) << "forward";
        EXPECT_EQ(first_bit_mismatch(inv, inv_ref), batch * n) << "inverse";
        std::vector<T> fwd_panel(batch * n), inv_panel(batch * n);
        wt.forward_batch<T>(in, fwd_panel, batch, *be);
        wt.inverse_batch<T>(in, inv_panel, batch, *be);
        EXPECT_EQ(first_bit_mismatch(fwd_panel, fwd_ref), batch * n)
            << "forward_batch";
        EXPECT_EQ(first_bit_mismatch(inv_panel, inv_ref), batch * n)
            << "inverse_batch";
      }
    }
  }
}

TEST(BackendFilterBankBits, WaveletTransformIsBitwiseReferenceFloat) {
  check_wavelet_transform_bits<float>();
}

TEST(BackendFilterBankBits, WaveletTransformIsBitwiseReferenceDouble) {
  check_wavelet_transform_bits<double>();
}

// ------------------------------------------------------ batched kernels --

TEST(BackendBatchKernels, SoftThresholdBatchIsBitwiseRowByRow) {
  const std::size_t batch = 3;
  const std::size_t n = 37;  // deliberately not a lane multiple
  util::Rng rng(99);
  std::vector<float> u(batch * n);
  for (auto& v : u) {
    v = static_cast<float>(rng.gaussian());
  }
  const float thresholds[batch] = {0.1f, 0.35f, 0.0f};
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> flat(batch * n, -1.0f);
    be->soft_threshold_batch(u.data(), thresholds, flat.data(), batch, n);
    std::vector<float> rows(batch * n, -2.0f);
    for (std::size_t b = 0; b < batch; ++b) {
      be->soft_threshold(u.data() + b * n, thresholds[b], rows.data() + b * n,
                         n);
    }
    for (std::size_t i = 0; i < batch * n; ++i) {
      ASSERT_EQ(flat[i], rows[i]) << "i=" << i;
    }
  }
}

TEST(BackendBatchKernels, DotBatchMatchesPerRowDots) {
  const std::size_t batch = 4;
  const std::size_t n = 53;
  util::Rng rng(123);
  std::vector<double> a(batch * n), b(batch * n);
  for (std::size_t i = 0; i < batch * n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
  }
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<double> out(batch, 0.0);
    be->dot_batch(a.data(), b.data(), out.data(), batch, n);
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(out[r], be->dot(a.data() + r * n, b.data() + r * n, n))
          << "row " << r;
    }
  }
}

// The counting decorator's panel overrides charge the same model as the
// row-by-row kernels, so batched solves price like sequential ones.
TEST(BackendBatchKernels, CountingBackendChargesBatchKernels) {
  const std::size_t batch = 2;
  const std::size_t n = 16;
  std::vector<float> u(batch * n, 1.0f);
  std::vector<float> y(batch * n);
  const float thresholds[batch] = {0.5f, 0.25f};
  OpCounts row_counts;
  {
    OpCounterScope scope;
    for (std::size_t b = 0; b < batch; ++b) {
      counting_simd4_backend().soft_threshold(u.data() + b * n, thresholds[b],
                                              y.data() + b * n, n);
    }
    row_counts = scope.counts();
  }
  OpCounterScope scope;
  counting_simd4_backend().soft_threshold_batch(u.data(), thresholds,
                                                y.data(), batch, n);
  const auto& c = scope.counts();
  EXPECT_EQ(c.vector_op4, row_counts.vector_op4);
  EXPECT_EQ(c.loads, row_counts.loads);
  EXPECT_EQ(c.stores, row_counts.stores);
}

// ------------------------------------------------------- group kernels --
// The l2,1 proximal step joint multi-lead recovery iterates on. Every
// backend accumulates the lead-axis norm in ascending lead order, so the
// two kernel sets must agree bitwise with each other (and to ~float
// precision with a double-precision oracle); leads == 1 must delegate to
// the plain soft threshold bitwise — the degeneration the L = 1 wire
// compatibility pin rests on.

TEST(BackendGroupKernels, GroupShrinkMatchesOracleOnAllBackends) {
  const float t = 0.35f;
  for (const std::size_t leads : {2u, 3u, 5u}) {
    for (const std::size_t n : {1u, 7u, 37u, 64u}) {  // tails and multiples
      SCOPED_TRACE("leads=" + std::to_string(leads) +
                   " n=" + std::to_string(n));
      util::Rng rng(7000 + 16 * leads + n);
      std::vector<float> u(leads * n);
      for (auto& v : u) {
        v = static_cast<float>(rng.gaussian());
      }
      // Double-precision oracle straight from the definition:
      // y_l[i] = u_l[i] * max(g_i - t, 0) / g_i, g_i the lead-axis norm.
      std::vector<double> oracle(leads * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        double g2 = 0.0;
        for (std::size_t l = 0; l < leads; ++l) {
          g2 += static_cast<double>(u[l * n + i]) * u[l * n + i];
        }
        const double g = std::sqrt(g2);
        const double scale = g > t ? (g - t) / g : 0.0;
        for (std::size_t l = 0; l < leads; ++l) {
          oracle[l * n + i] = u[l * n + i] * scale;
        }
      }
      std::vector<float> ref_y(leads * n, -1.0f);
      reference_backend().group_soft_threshold_batch(u.data(), t, ref_y.data(),
                                                     leads, n);
      for (std::size_t i = 0; i < leads * n; ++i) {
        ASSERT_NEAR(ref_y[i], oracle[i], 1e-5) << "i=" << i;
      }
      for (const Backend* be : all_backends()) {
        SCOPED_TRACE(be->name());
        std::vector<float> y(leads * n, -2.0f);
        be->group_soft_threshold_batch(u.data(), t, y.data(), leads, n);
        for (std::size_t i = 0; i < leads * n; ++i) {
          ASSERT_EQ(y[i], ref_y[i]) << "i=" << i;  // bitwise across sets
        }
      }
    }
  }
}

TEST(BackendGroupKernels, GroupShrinkLeadsOneIsBitwisePlainSoftThreshold) {
  const std::size_t n = 37;  // deliberately not a lane multiple
  util::Rng rng(7100);
  std::vector<float> uf(n);
  std::vector<double> ud(n);
  for (std::size_t i = 0; i < n; ++i) {
    uf[i] = static_cast<float>(rng.gaussian());
    ud[i] = static_cast<double>(uf[i]);
  }
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> group_f(n, -1.0f), plain_f(n, -2.0f);
    be->group_soft_threshold_batch(uf.data(), 0.25f, group_f.data(), 1, n);
    be->soft_threshold(uf.data(), 0.25f, plain_f.data(), n);
    std::vector<double> group_d(n, -1.0), plain_d(n, -2.0);
    be->group_soft_threshold_batch(ud.data(), 0.25, group_d.data(), 1, n);
    be->soft_threshold(ud.data(), 0.25, plain_d.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(group_f[i], plain_f[i]) << "float i=" << i;
      ASSERT_EQ(group_d[i], plain_d[i]) << "double i=" << i;
    }
  }
}

// Pinned §IV-B literals for the group shrink on a fixed workload
// (leads 3, n 37 — a 1-element 4-lane tail per lead row). Byte-identical
// counts are the acceptance criterion: if these fail, fix the group
// charging, not the goldens. leads == 1 must charge exactly the plain
// soft-threshold formula — the priced side of the degeneration pin.
TEST(BackendGroupKernels, CountingScalarGroupShrinkGoldens) {
  const std::size_t leads = 3;
  const std::size_t n = 37;
  std::vector<float> u(leads * n, 1.0f), y(leads * n);
  const Backend& be = counting_scalar_backend();
  {
    OpCounterScope scope;
    be.group_soft_threshold_batch(u.data(), 0.25f, y.data(), leads, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.scalar_mac, 111u);
    EXPECT_EQ(c.scalar_op, 518u);
    EXPECT_EQ(c.vector_mac4, 0u);
    EXPECT_EQ(c.vector_op4, 0u);
    EXPECT_EQ(c.leftover_lane, 0u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  OpCounts group1, plain;
  {
    OpCounterScope scope;
    be.group_soft_threshold_batch(u.data(), 0.25f, y.data(), 1, n);
    group1 = scope.counts();
  }
  {
    OpCounterScope scope;
    be.soft_threshold(u.data(), 0.25f, y.data(), n);
    plain = scope.counts();
  }
  EXPECT_EQ(group1.scalar_mac, plain.scalar_mac);
  EXPECT_EQ(group1.scalar_op, plain.scalar_op);
  EXPECT_EQ(group1.loads, plain.loads);
  EXPECT_EQ(group1.stores, plain.stores);
}

TEST(BackendGroupKernels, CountingSimd4GroupShrinkGoldens) {
  const std::size_t leads = 3;
  const std::size_t n = 37;  // 9 packed quads + 1 leftover lane per row
  std::vector<float> u(leads * n, 1.0f), y(leads * n);
  const Backend& be = counting_simd4_backend();
  {
    OpCounterScope scope;
    be.group_soft_threshold_batch(u.data(), 0.25f, y.data(), leads, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.scalar_mac, 3u);
    EXPECT_EQ(c.scalar_op, 17u);
    EXPECT_EQ(c.vector_mac4, 27u);
    EXPECT_EQ(c.vector_op4, 156u);
    EXPECT_EQ(c.leftover_lane, 4u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  OpCounts group1, plain;
  {
    OpCounterScope scope;
    be.group_soft_threshold_batch(u.data(), 0.25f, y.data(), 1, n);
    group1 = scope.counts();
  }
  {
    OpCounterScope scope;
    be.soft_threshold(u.data(), 0.25f, y.data(), n);
    plain = scope.counts();
  }
  EXPECT_EQ(group1.scalar_op, plain.scalar_op);
  EXPECT_EQ(group1.vector_op4, plain.vector_op4);
  EXPECT_EQ(group1.leftover_lane, plain.leftover_lane);
  EXPECT_EQ(group1.loads, plain.loads);
  EXPECT_EQ(group1.stores, plain.stores);
}

// ------------------------------------------------------- panel kernels --
// The GEMM-flavoured multi-vector kernels batched FISTA iterates on.
// Every panel must be bitwise identical to its row-by-row definition on
// both kernel sets — including rows whose length is not a lane multiple
// — and must degenerate to the single-vector kernel at batch 1.

TEST(BackendPanelKernels, ElementwisePanelsAreBitwiseRowByRow) {
  const std::size_t batch = 3;
  const std::size_t n = 37;  // deliberately not a lane multiple
  util::Rng rng(402);
  std::vector<float> x(batch * n), y0(batch * n);
  for (std::size_t i = 0; i < batch * n; ++i) {
    x[i] = static_cast<float>(rng.gaussian());
    y0[i] = static_cast<float>(rng.gaussian());
  }
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> panel(y0), rows(y0);
    be->axpy_batch(0.625f, x.data(), panel.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      be->axpy_batch(0.625f, x.data() + b * n, rows.data() + b * n, 1, n);
    }
    for (std::size_t i = 0; i < batch * n; ++i) {
      ASSERT_EQ(panel[i], rows[i]) << "axpy_batch i=" << i;
    }

    std::vector<float> sub_panel(batch * n, -1.0f), sub_rows(batch * n, -2.0f);
    be->subtract_batch(x.data(), y0.data(), sub_panel.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      be->subtract(x.data() + b * n, y0.data() + b * n,
                   sub_rows.data() + b * n, n);
    }
    for (std::size_t i = 0; i < batch * n; ++i) {
      ASSERT_EQ(sub_panel[i], sub_rows[i]) << "subtract_batch i=" << i;
    }

    std::vector<float> copied(batch * n, -3.0f);
    be->copy_batch(x.data(), copied.data(), batch, n);
    for (std::size_t i = 0; i < batch * n; ++i) {
      ASSERT_EQ(copied[i], x[i]) << "copy_batch i=" << i;
    }
  }
}

TEST(BackendPanelKernels, Norm1BatchMatchesPerRowNorms) {
  const std::size_t batch = 4;
  const std::size_t n = 41;
  util::Rng rng(403);
  std::vector<double> xd(batch * n);
  std::vector<float> xf(batch * n);
  for (std::size_t i = 0; i < batch * n; ++i) {
    xf[i] = static_cast<float>(rng.gaussian());
    xd[i] = static_cast<double>(xf[i]);
  }
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> out_f(batch, -1.0f);
    be->norm1_batch(xf.data(), out_f.data(), batch, n);
    std::vector<double> out_d(batch, -1.0);
    be->norm1_batch(xd.data(), out_d.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      // Bitwise: the panel keeps each row's accumulation order.
      EXPECT_EQ(out_f[b], be->norm1(xf.data() + b * n, n)) << "row " << b;
      EXPECT_EQ(out_d[b], be->norm1(xd.data() + b * n, n)) << "row " << b;
    }
  }
}

TEST(BackendPanelKernels, BatchOfOneDegeneratesToVectorKernels) {
  const std::size_t n = 29;
  util::Rng rng(405);
  std::vector<float> x(n), y0(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.gaussian());
    y0[i] = static_cast<float>(rng.gaussian());
  }
  const float threshold = 0.2f;
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<float> s_panel(n), s_single(n);
    be->soft_threshold_batch(x.data(), &threshold, s_panel.data(), 1, n);
    be->soft_threshold(x.data(), threshold, s_single.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(s_panel[i], s_single[i]) << "soft_threshold i=" << i;
    }
    float dot_panel = 0.0f;
    be->dot_batch(x.data(), y0.data(), &dot_panel, 1, n);
    EXPECT_EQ(dot_panel, be->dot(x.data(), y0.data(), n));
    float norm_panel = 0.0f;
    be->norm1_batch(x.data(), &norm_panel, 1, n);
    EXPECT_EQ(norm_panel, be->norm1(x.data(), n));
  }
}

// The panel contracts swept over every row length of the parity suite,
// in both precisions. The wide elementwise panels run one flat sweep
// across row boundaries and the native group shrink runs full-width
// blocks over positions with a scalar tail, so each length puts a
// different split of body and tail under the row-by-row and cross-set
// contracts.
class BackendPanelSweepTest : public ::testing::TestWithParam<std::size_t> {};

template <typename T>
void check_panels_bitwise_row_by_row(std::size_t n) {
  const std::size_t batch = 3;
  util::Rng rng(4000 + n);
  std::vector<T> x(batch * n), y0(batch * n);
  for (std::size_t i = 0; i < batch * n; ++i) {
    x[i] = static_cast<T>(rng.gaussian());
    y0[i] = static_cast<T>(rng.gaussian());
  }
  const T thresholds[batch] = {T(0.1), T(0.35), T(0)};
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name());
    std::vector<T> panel(y0), rows(y0);
    be->axpy_batch(T(0.625), x.data(), panel.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      be->axpy_batch(T(0.625), x.data() + b * n, rows.data() + b * n, 1, n);
    }
    ASSERT_EQ(first_bit_mismatch(panel, rows), panel.size()) << "axpy_batch";

    be->subtract_batch(x.data(), y0.data(), panel.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      be->subtract(x.data() + b * n, y0.data() + b * n, rows.data() + b * n,
                   n);
    }
    ASSERT_EQ(first_bit_mismatch(panel, rows), panel.size())
        << "subtract_batch";

    be->copy_batch(x.data(), panel.data(), batch, n);
    ASSERT_EQ(first_bit_mismatch(panel, x), panel.size()) << "copy_batch";

    be->soft_threshold_batch(x.data(), thresholds, panel.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      be->soft_threshold(x.data() + b * n, thresholds[b], rows.data() + b * n,
                         n);
    }
    ASSERT_EQ(first_bit_mismatch(panel, rows), panel.size())
        << "soft_threshold_batch";

    std::vector<T> dots(batch), norms(batch);
    be->dot_batch(x.data(), y0.data(), dots.data(), batch, n);
    be->norm1_batch(x.data(), norms.data(), batch, n);
    for (std::size_t b = 0; b < batch; ++b) {
      EXPECT_EQ(dots[b], be->dot(x.data() + b * n, y0.data() + b * n, n))
          << "dot_batch row " << b;
      EXPECT_EQ(norms[b], be->norm1(x.data() + b * n, n))
          << "norm1_batch row " << b;
    }
  }
}

TEST_P(BackendPanelSweepTest, PanelsAreBitwiseRowByRow) {
  check_panels_bitwise_row_by_row<float>(GetParam());
  check_panels_bitwise_row_by_row<double>(GetParam());
}

// Both kernel sets against a double oracle from the definition, and
// bitwise against each other (both accumulate the lead-axis norm in
// ascending lead order); leads == 1 is the plain soft threshold.
template <typename T>
void check_group_shrink_across_sets(std::size_t n) {
  const T t = T(0.35);
  const double tol = sizeof(T) == sizeof(float) ? 1e-5 : 1e-12;
  for (const std::size_t leads : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("leads=" + std::to_string(leads));
    util::Rng rng(7200 + 16 * leads + n);
    std::vector<T> u(leads * n);
    for (auto& v : u) {
      v = static_cast<T>(rng.gaussian());
    }
    std::vector<T> ref_y(leads * n, T(-1));
    reference_backend().group_soft_threshold_batch(u.data(), t, ref_y.data(),
                                                   leads, n);
    for (std::size_t i = 0; i < n; ++i) {
      double g2 = 0.0;
      for (std::size_t l = 0; l < leads; ++l) {
        g2 += static_cast<double>(u[l * n + i]) * u[l * n + i];
      }
      const double g = std::sqrt(g2);
      const double scale = g > t ? (g - t) / g : 0.0;
      for (std::size_t l = 0; l < leads; ++l) {
        ASSERT_NEAR(ref_y[l * n + i], u[l * n + i] * scale, tol)
            << "l=" << l << " i=" << i;
      }
    }
    std::vector<T> y(leads * n, T(-2));
    native_backend().group_soft_threshold_batch(u.data(), t, y.data(), leads,
                                                n);
    for (std::size_t i = 0; i < leads * n; ++i) {
      ASSERT_EQ(y[i], ref_y[i]) << "i=" << i;
    }
  }
}

TEST_P(BackendPanelSweepTest, GroupShrinkIsBitwiseAcrossKernelSets) {
  check_group_shrink_across_sets<float>(GetParam());
  check_group_shrink_across_sets<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BackendPanelSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 17,
                                           31, 64, 100, 255, 256, 257, 512));

// Every panel kernel must charge exactly batch x the per-row formula —
// byte-identical to running the sequential schedule row by row.
TEST(BackendPanelKernels, CountingPanelChargesEqualSequentialSchedule) {
  const std::size_t batch = 3;
  const std::size_t n = 37;
  util::Rng rng(406);
  std::vector<float> x(batch * n), y(batch * n), out(batch * n);
  std::vector<float> thresholds(batch, 0.25f);
  std::vector<float> row_out(batch);
  for (auto& v : x) {
    v = static_cast<float>(rng.gaussian());
  }
  y = x;

  for (const Backend* be :
       {&counting_scalar_backend(), &counting_simd4_backend()}) {
    SCOPED_TRACE(be->name());
    const auto charge_of = [&](auto&& fn) {
      OpCounterScope scope;
      fn();
      return scope.counts();
    };
    const auto expect_eq = [](const OpCounts& a, const OpCounts& b,
                              const char* kernel) {
      EXPECT_EQ(a.scalar_mac, b.scalar_mac) << kernel;
      EXPECT_EQ(a.scalar_op, b.scalar_op) << kernel;
      EXPECT_EQ(a.vector_mac4, b.vector_mac4) << kernel;
      EXPECT_EQ(a.vector_op4, b.vector_op4) << kernel;
      EXPECT_EQ(a.leftover_lane, b.leftover_lane) << kernel;
      EXPECT_EQ(a.loads, b.loads) << kernel;
      EXPECT_EQ(a.stores, b.stores) << kernel;
    };

    expect_eq(charge_of([&] {
                be->axpy_batch(0.5f, x.data(), y.data(), batch, n);
              }),
              charge_of([&] {
                for (std::size_t b = 0; b < batch; ++b) {
                  be->axpy_batch(0.5f, x.data() + b * n, y.data() + b * n, 1,
                                 n);
                }
              }),
              "axpy_batch");
    expect_eq(charge_of([&] {
                be->subtract_batch(x.data(), y.data(), out.data(), batch, n);
              }),
              charge_of([&] {
                for (std::size_t b = 0; b < batch; ++b) {
                  be->subtract(x.data() + b * n, y.data() + b * n,
                               out.data() + b * n, n);
                }
              }),
              "subtract_batch");
    expect_eq(
        charge_of([&] { be->copy_batch(x.data(), out.data(), batch, n); }),
        charge_of([&] {
          for (std::size_t b = 0; b < batch; ++b) {
            be->copy(x.data() + b * n, out.data() + b * n, n);
          }
        }),
        "copy_batch");
    expect_eq(charge_of([&] {
                be->norm1_batch(x.data(), row_out.data(), batch, n);
              }),
              charge_of([&] {
                for (std::size_t b = 0; b < batch; ++b) {
                  (void)be->norm1(x.data() + b * n, n);
                }
              }),
              "norm1_batch");
    expect_eq(charge_of([&] {
                be->dot_batch(x.data(), y.data(), row_out.data(), batch, n);
              }),
              charge_of([&] {
                for (std::size_t b = 0; b < batch; ++b) {
                  (void)be->dot(x.data() + b * n, y.data() + b * n, n);
                }
              }),
              "dot_batch");
    expect_eq(charge_of([&] {
                be->soft_threshold_batch(x.data(), thresholds.data(),
                                         out.data(), batch, n);
              }),
              charge_of([&] {
                for (std::size_t b = 0; b < batch; ++b) {
                  be->soft_threshold(x.data() + b * n, thresholds[b],
                                     out.data() + b * n, n);
                }
              }),
              "soft_threshold_batch");
  }
}

// Pinned §IV-B literals for the panel kernels on a fixed workload
// (batch 3, n 37 — a 1-element 4-lane tail per row; half_n 14, taps 8).
// Byte-identical counts are the acceptance criterion: if these fail, fix
// the panel charging, not the goldens.
TEST(BackendPanelKernels, CountingScalarPanelGoldens) {
  const std::size_t batch = 3;
  const std::size_t n = 37;
  std::vector<float> x(batch * n, 1.0f), y(batch * n, 2.0f);
  const Backend& be = counting_scalar_backend();
  {
    OpCounterScope scope;
    be.axpy_batch(0.5f, x.data(), y.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.scalar_mac, 111u);
    EXPECT_EQ(c.scalar_op, 0u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  {
    OpCounterScope scope;
    be.subtract_batch(x.data(), y.data(), y.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.scalar_op, 111u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  {
    OpCounterScope scope;
    std::vector<float> norms(batch);
    be.norm1_batch(x.data(), norms.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.scalar_op, 111u);
    EXPECT_EQ(c.loads, 111u);
    EXPECT_EQ(c.stores, 0u);
  }
}

TEST(BackendPanelKernels, CountingSimd4PanelGoldens) {
  const std::size_t batch = 3;
  const std::size_t n = 37;  // 9 packed quads + 1 leftover lane per row
  std::vector<float> x(batch * n, 1.0f), y(batch * n, 2.0f);
  const Backend& be = counting_simd4_backend();
  {
    OpCounterScope scope;
    be.axpy_batch(0.5f, x.data(), y.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.vector_mac4, 27u);     // 3 rows x 9 quads
    EXPECT_EQ(c.scalar_mac, 3u);       // per-row tail, charged per row
    EXPECT_EQ(c.leftover_lane, 3u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  {
    OpCounterScope scope;
    be.subtract_batch(x.data(), y.data(), y.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.vector_op4, 27u);
    EXPECT_EQ(c.scalar_op, 3u);
    EXPECT_EQ(c.leftover_lane, 3u);
    EXPECT_EQ(c.loads, 222u);
    EXPECT_EQ(c.stores, 111u);
  }
  {
    OpCounterScope scope;
    std::vector<float> norms(batch);
    be.norm1_batch(x.data(), norms.data(), batch, n);
    const auto& c = scope.counts();
    EXPECT_EQ(c.vector_op4, 27u);
    EXPECT_EQ(c.leftover_lane, 3u);
    EXPECT_EQ(c.loads, 111u);
  }
}

// --------------------------------------------------- §IV-B count goldens --

// The fixed decode workload whose operation mix was captured from the
// seed's instrumented kernels before the Backend refactor. Byte-identical
// counts are the acceptance criterion: if this fails, fix the backend
// charging, not the goldens.
template <typename T>
core::DecodedWindow<T> golden_decode(const Backend& backend,
                                     OpCounts* counts) {
  core::DecoderConfig config;  // window 512, M 256, db4, 5 levels, seed 42
  config.backend = &backend;
  config.max_iterations = 60;  // bounded, deterministic workload
  core::Decoder decoder(config,
                        *core::resolve_profile_codebook(
                            core::StreamProfile::kCodebookDefault));
  std::vector<std::int32_t> y(config.cs.measurements);
  std::uint32_t state = 0x9e3779b9u;
  for (auto& v : y) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    v = static_cast<std::int32_t>(state % 4096u) - 2048;
  }
  OpCounterScope scope;
  auto window = decoder.reconstruct<T>(std::span<const std::int32_t>(y));
  *counts = scope.counts();
  return window;
}

TEST(BackendGoldens, CountingScalarReproducesSeedOpCounts) {
  OpCounts c;
  const auto w = golden_decode<float>(counting_scalar_backend(), &c);
  EXPECT_EQ(w.iterations, 60u);
  EXPECT_FALSE(w.converged);
  EXPECT_EQ(c.scalar_mac, 1491456u);
  EXPECT_EQ(c.scalar_op, 1464064u);
  EXPECT_EQ(c.vector_mac4, 0u);
  EXPECT_EQ(c.vector_op4, 0u);
  EXPECT_EQ(c.leftover_lane, 0u);
  EXPECT_EQ(c.loads, 3350112u);
  EXPECT_EQ(c.stores, 1722400u);
  EXPECT_NEAR(w.samples[0], 494.455048, 1e-3);
  EXPECT_NEAR(w.samples[255], 398.127808, 1e-3);
  EXPECT_NEAR(w.samples[511], 246.898102, 1e-3);
  EXPECT_NEAR(w.residual_norm, 534.142508, 1e-3);
}

// Pricing depends only on (sizes, schedule): the one-argument form over
// the native kernels (how the benchmark prices the A8 model), the same
// with the schedule spelled out, and the reference-loop singleton charge
// byte-identical counts on the golden workload.
TEST(BackendGoldens, PricingIgnoresTheWrappedKernelSet) {
  const CountingBackend implicit_simd4(native_backend());
  const CountingBackend explicit_simd4(native_backend(), KernelMode::kSimd4);
  EXPECT_EQ(implicit_simd4.schedule(), KernelMode::kSimd4);
  OpCounts reference_counts;
  golden_decode<float>(counting_simd4_backend(), &reference_counts);
  for (const CountingBackend* be : {&implicit_simd4, &explicit_simd4}) {
    SCOPED_TRACE(be->name());
    OpCounts c;
    const auto w = golden_decode<float>(*be, &c);
    EXPECT_EQ(w.iterations, 60u);
    EXPECT_EQ(c.scalar_mac, reference_counts.scalar_mac);
    EXPECT_EQ(c.scalar_op, reference_counts.scalar_op);
    EXPECT_EQ(c.vector_mac4, reference_counts.vector_mac4);
    EXPECT_EQ(c.vector_op4, reference_counts.vector_op4);
    EXPECT_EQ(c.leftover_lane, reference_counts.leftover_lane);
    EXPECT_EQ(c.loads, reference_counts.loads);
    EXPECT_EQ(c.stores, reference_counts.stores);
  }
}

// Counting only prices: both singletons execute the reference loops, so
// their decodes are bitwise the plain reference decode.
TEST(BackendGoldens, CountingSingletonsDecodeBitwiseAsReference) {
  OpCounts unused;
  const auto plain = golden_decode<float>(reference_backend(), &unused);
  for (const CountingBackend* be :
       {&counting_scalar_backend(), &counting_simd4_backend()}) {
    SCOPED_TRACE(be->name());
    const auto w = golden_decode<float>(*be, &unused);
    EXPECT_EQ(w.iterations, plain.iterations);
    EXPECT_EQ(first_bit_mismatch(w.samples, plain.samples),
              plain.samples.size());
    EXPECT_EQ(w.residual_norm, plain.residual_norm);
  }
}

TEST(BackendGoldens, CountingSimd4ReproducesSeedOpCounts) {
  OpCounts c;
  const auto w = golden_decode<float>(counting_simd4_backend(), &c);
  EXPECT_EQ(w.iterations, 60u);
  EXPECT_FALSE(w.converged);
  EXPECT_EQ(c.scalar_mac, 0u);
  EXPECT_EQ(c.scalar_op, 1171200u);
  EXPECT_EQ(c.vector_mac4, 372864u);
  EXPECT_EQ(c.vector_op4, 80896u);
  EXPECT_EQ(c.leftover_lane, 0u);
  EXPECT_EQ(c.loads, 3350112u);
  EXPECT_EQ(c.stores, 1722400u);
  EXPECT_NEAR(w.samples[0], 494.455048, 1e-3);
  EXPECT_NEAR(w.samples[255], 398.127808, 1e-3);
  EXPECT_NEAR(w.samples[511], 246.898102, 1e-3);
  EXPECT_NEAR(w.residual_norm, 534.142479, 1e-3);
}

// The weighted-l1 decode (PriorPolicy::weighted_l1) runs every
// iteration's prox as the solver's hand-charged weighted soft-threshold
// loop instead of the uniform soft_threshold kernel, which prices
// differently (per-coefficient threshold loads, a different ALU mix per
// schedule). Its op mix is pinned the same way as the uniform goldens:
// if these fail, fix the weighted prox's charging, not the numbers. (No
// warm start here, so the workload stays one deterministic cold solve.)
template <typename T>
core::DecodedWindow<T> golden_weighted_decode(const Backend& backend,
                                              OpCounts* counts) {
  core::DecoderConfig config;
  config.backend = &backend;
  config.max_iterations = 60;
  config.prior.weighted_l1 = true;  // approx band at kWeightedL1ApproxWeight
  core::Decoder decoder(config,
                        *core::resolve_profile_codebook(
                            core::StreamProfile::kCodebookDefault));
  std::vector<std::int32_t> y(config.cs.measurements);
  std::uint32_t state = 0x9e3779b9u;  // same workload as golden_decode
  for (auto& v : y) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    v = static_cast<std::int32_t>(state % 4096u) - 2048;
  }
  OpCounterScope scope;
  auto window = decoder.reconstruct<T>(std::span<const std::int32_t>(y));
  *counts = scope.counts();
  return window;
}

TEST(BackendGoldens, WeightedL1ScalarOpCounts) {
  OpCounts c;
  const auto w = golden_weighted_decode<float>(counting_scalar_backend(), &c);
  EXPECT_EQ(w.iterations, 60u);
  EXPECT_EQ(c.scalar_mac, 1491456u);
  EXPECT_EQ(c.scalar_op, 1494272u);
  EXPECT_EQ(c.vector_mac4, 0u);
  EXPECT_EQ(c.vector_op4, 0u);
  EXPECT_EQ(c.leftover_lane, 0u);
  EXPECT_EQ(c.loads, 3380320u);
  EXPECT_EQ(c.stores, 1722400u);
}

TEST(BackendGoldens, WeightedL1Simd4OpCounts) {
  OpCounts c;
  const auto w = golden_weighted_decode<float>(counting_simd4_backend(), &c);
  EXPECT_EQ(w.iterations, 60u);
  EXPECT_EQ(c.scalar_mac, 0u);
  EXPECT_EQ(c.scalar_op, 1171200u);
  EXPECT_EQ(c.vector_mac4, 372864u);
  EXPECT_EQ(c.vector_op4, 80768u);
  EXPECT_EQ(c.leftover_lane, 0u);
  EXPECT_EQ(c.loads, 3380320u);
  EXPECT_EQ(c.stores, 1722400u);
}

TEST(BackendGoldens, WeightedL1LandsNearTheUniformDecode) {
  // Down-weighting the approximation band changes which minimiser the
  // solve walks towards, but on this synthetic workload the two must stay
  // in the same neighbourhood — a sanity bound, not a golden.
  OpCounts unused;
  const auto uniform = golden_decode<float>(counting_scalar_backend(), &unused);
  const auto weighted =
      golden_weighted_decode<float>(counting_scalar_backend(), &unused);
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < uniform.samples.size(); ++i) {
    const double d = static_cast<double>(uniform.samples[i]) -
                     static_cast<double>(weighted.samples[i]);
    diff += d * d;
    norm += static_cast<double>(uniform.samples[i]) *
            static_cast<double>(uniform.samples[i]);
  }
  EXPECT_LT(std::sqrt(diff / norm), 0.5);
}

// The double-precision decode now runs through the same Backend, so a
// counting decorator prices it too (the seed's double path bypassed the
// instrumented kernels entirely and charged nothing).
TEST(BackendGoldens, DoublePrecisionDecodeChargesTheModel) {
  OpCounts scalar_counts;
  const auto wd =
      golden_decode<double>(counting_scalar_backend(), &scalar_counts);
  EXPECT_EQ(wd.iterations, 60u);
  EXPECT_GT(scalar_counts.scalar_mac, 0u);
  EXPECT_GT(scalar_counts.scalar_op, 0u);
  EXPECT_GT(scalar_counts.loads, 0u);
  EXPECT_GT(scalar_counts.stores, 0u);
  EXPECT_EQ(scalar_counts.vector_mac4, 0u);

  OpCounts simd_counts;
  golden_decode<double>(counting_simd4_backend(), &simd_counts);
  EXPECT_EQ(simd_counts.scalar_mac, 0u);
  EXPECT_GT(simd_counts.vector_mac4, 0u);

  // The cost formulas are size-based, so with the iteration count pinned
  // the double decode prices exactly like the float one.
  OpCounts float_counts;
  golden_decode<float>(counting_scalar_backend(), &float_counts);
  EXPECT_EQ(scalar_counts.scalar_mac, float_counts.scalar_mac);
  EXPECT_EQ(scalar_counts.scalar_op, float_counts.scalar_op);
  EXPECT_EQ(scalar_counts.loads, float_counts.loads);
  EXPECT_EQ(scalar_counts.stores, float_counts.stores);

  // Fig 6's headline: both precisions land on the same reconstruction.
  const auto wf = golden_decode<float>(counting_scalar_backend(), &float_counts);
  EXPECT_NEAR(wd.samples[0], wf.samples[0], 0.5);
  EXPECT_NEAR(wd.samples[511], wf.samples[511], 0.5);
}

// ------------------------------------------------------- decoder batching --

TEST(DecoderBatch, BatchedReconstructionIsBitwiseIdenticalToSequential) {
  core::DecoderConfig config;
  config.max_iterations = 40;
  core::Decoder decoder(config,
                        *core::resolve_profile_codebook(
                            core::StreamProfile::kCodebookDefault));
  constexpr std::size_t kBatch = 4;
  const std::size_t m = config.cs.measurements;
  std::vector<std::int32_t> flat(kBatch * m);
  std::uint32_t state = 0xdecafbadu;
  for (auto& v : flat) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    v = static_cast<std::int32_t>(state % 4096u) - 2048;
  }

  std::vector<core::DecodedWindow<float>> sequential(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    sequential[b] = decoder.reconstruct<float>(
        std::span<const std::int32_t>(flat.data() + b * m, m));
  }

  solvers::SolverWorkspace workspace;
  std::vector<core::DecodedWindow<float>> batched(kBatch);
  decoder.reconstruct_batch_into<float>(
      std::span<const std::int32_t>(flat), kBatch, workspace,
      std::span<core::DecodedWindow<float>>(batched));

  for (std::size_t b = 0; b < kBatch; ++b) {
    SCOPED_TRACE("window " + std::to_string(b));
    EXPECT_EQ(batched[b].iterations, sequential[b].iterations);
    EXPECT_EQ(batched[b].converged, sequential[b].converged);
    ASSERT_EQ(batched[b].samples.size(), sequential[b].samples.size());
    for (std::size_t i = 0; i < sequential[b].samples.size(); ++i) {
      ASSERT_EQ(batched[b].samples[i], sequential[b].samples[i])
          << "sample " << i;  // bitwise: the lock-step solve is exact
    }
    EXPECT_NEAR(batched[b].residual_norm, sequential[b].residual_norm,
                1e-9 * (1.0 + sequential[b].residual_norm));
  }
}

TEST(DecoderBatch, BatchOfOneMatchesSequentialPath) {
  core::DecoderConfig config;
  config.max_iterations = 25;
  core::Decoder decoder(config,
                        *core::resolve_profile_codebook(
                            core::StreamProfile::kCodebookDefault));
  const std::size_t m = config.cs.measurements;
  std::vector<std::int32_t> y(m);
  std::uint32_t state = 7u;
  for (auto& v : y) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    v = static_cast<std::int32_t>(state % 4096u) - 2048;
  }
  const auto expected =
      decoder.reconstruct<float>(std::span<const std::int32_t>(y));
  solvers::SolverWorkspace workspace;
  std::vector<core::DecodedWindow<float>> out(1);
  decoder.reconstruct_batch_into<float>(
      std::span<const std::int32_t>(y), 1, workspace,
      std::span<core::DecodedWindow<float>>(out));
  EXPECT_EQ(out[0].iterations, expected.iterations);
  for (std::size_t i = 0; i < expected.samples.size(); ++i) {
    ASSERT_EQ(out[0].samples[i], expected.samples[i]) << i;
  }
}

// ------------------------------------------------------- native backend --

TEST(DecoderBackend, NativeBackendReconstructsLikeReference) {
  core::DecoderConfig ref_config;
  ref_config.backend = &reference_backend();
  ref_config.max_iterations = 60;
  core::DecoderConfig nat_config;
  nat_config.backend = &native_backend();
  nat_config.max_iterations = 60;
  const auto codebook =
      *core::resolve_profile_codebook(core::StreamProfile::kCodebookDefault);
  core::Decoder ref_decoder(ref_config, codebook);
  core::Decoder nat_decoder(nat_config, codebook);
  std::vector<std::int32_t> y(ref_config.cs.measurements);
  std::uint32_t state = 0x5eedu;
  for (auto& v : y) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    v = static_cast<std::int32_t>(state % 4096u) - 2048;
  }
  const auto wr =
      ref_decoder.reconstruct<float>(std::span<const std::int32_t>(y));
  const auto wn =
      nat_decoder.reconstruct<float>(std::span<const std::int32_t>(y));
  ASSERT_EQ(wn.samples.size(), wr.samples.size());
  for (std::size_t i = 0; i < wr.samples.size(); ++i) {
    // Accumulation order differs (wide lanes + horizontal sums), so the
    // corridor is loose-float, not bitwise.
    ASSERT_NEAR(wn.samples[i], wr.samples[i],
                2e-3 * (1.0 + std::fabs(wr.samples[i])))
        << i;
  }
  EXPECT_NEAR(wn.residual_norm, wr.residual_norm,
              1e-3 * (1.0 + wr.residual_norm));
}

TEST(DecoderBackend, SetBackendRewiresEverything) {
  core::DecoderConfig config;
  config.max_iterations = 30;
  core::Decoder decoder(config,
                        *core::resolve_profile_codebook(
                            core::StreamProfile::kCodebookDefault));
  EXPECT_EQ(&decoder.backend(), &default_backend());
  EXPECT_EQ(&default_backend(), &reference_backend());
  decoder.set_backend(native_backend());
  EXPECT_EQ(&decoder.backend(), &native_backend());
  // A counting wrap after set_backend must observe charges again, priced
  // as the schedule it was given.
  CountingBackend counting(native_backend(), KernelMode::kScalar);
  decoder.set_backend(counting);
  std::vector<std::int32_t> y(decoder.config().cs.measurements, 100);
  OpCounterScope scope;
  (void)decoder.reconstruct<float>(std::span<const std::int32_t>(y));
  EXPECT_GT(scope.counts().scalar_mac, 0u);
}

}  // namespace
}  // namespace csecg::linalg
