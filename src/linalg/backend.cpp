#include "csecg/linalg/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

// The kNative implementation uses GCC/Clang vector extensions; it is
// compiled only when the build opts in (CSECG_NATIVE_SIMD) and the
// compiler supports them. Otherwise native_backend() degrades to the
// reference singleton.
#if defined(CSECG_NATIVE_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define CSECG_HAS_NATIVE_SIMD 1
#else
#define CSECG_HAS_NATIVE_SIMD 0
#endif

namespace csecg::linalg {

namespace {

// ---------------------------------------------------------------------------
// §IV-B cost formulas (moved here from the old instrumented kernels; no
// kernel set counts — CountingBackend prices them).
// ---------------------------------------------------------------------------

// Bookkeeping for a 1-D loop of n elements whose body costs `macs`
// multiply-accumulates (or `ops` generic ops) in total. kScalar charges
// them as-is; kSimd4 packs 4 lanes per vector op, and a non-multiple-of-4
// tail is processed lane-by-lane (Fig 3, "load lane by lane"), costing
// scalar work plus the lane-shuffling overhead.
inline OpCounts loop_cost(std::size_t n, KernelMode mode, std::uint64_t macs,
                          std::uint64_t ops, std::uint64_t loads,
                          std::uint64_t stores) {
  OpCounts c;
  if (n == 0) {
    return c;
  }
  c.loads = loads;
  c.stores = stores;
  if (mode == KernelMode::kScalar) {
    c.scalar_mac = macs;
    c.scalar_op = ops;
  } else {
    c.vector_mac4 = macs / 4;
    c.vector_op4 = ops / 4;
    const std::uint64_t tail = n % 4;
    if (tail != 0) {
      c.scalar_mac += (macs / n) * tail;
      c.scalar_op += (ops / n) * tail;
      c.leftover_lane += tail;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// kReference: straightforward templated loops — the numerical ground
// truth (vector_ops semantics) and the library default. Also the body
// shape the old plain-double paths used, so double-precision callers keep
// their numerics.
// ---------------------------------------------------------------------------

struct RefOps {
  static constexpr const char* kName = "reference";

  template <typename T>
  static T dot(const T* a, const T* b, std::size_t n) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }

  template <typename T>
  static void axpy(T alpha, const T* x, T* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += alpha * x[i];
    }
  }

  template <typename T>
  static void subtract(const T* a, const T* b, T* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = a[i] - b[i];
    }
  }

  template <typename T>
  static void copy(const T* x, T* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = x[i];
    }
  }

  template <typename T>
  static void soft_threshold(const T* u, T t, T* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const T v = u[i];
      T mag = std::fabs(v) - t;
      mag = mag > T(0) ? mag : T(0);
      y[i] = v > T(0) ? mag : (v < T(0) ? -mag : T(0));
    }
  }

  // Group-lasso proximal step over `leads` packed rows: the lead-axis l2
  // norm at each position scales all leads by max(g - t, 0) / g. The
  // squared norm accumulates in ascending lead order — the native kernel
  // keeps that order, so results are bitwise-identical across backends.
  template <typename T>
  static void group_soft_threshold(const T* u, T t, T* y, std::size_t leads,
                                   std::size_t n) {
    if (leads == 1) {
      soft_threshold(u, t, y, n);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      T sq{};
      for (std::size_t l = 0; l < leads; ++l) {
        const T v = u[l * n + i];
        sq += v * v;
      }
      const T g = std::sqrt(sq);
      T mag = g - t;
      mag = mag > T(0) ? mag : T(0);
      const T f = g > T(0) ? mag / g : T(0);
      for (std::size_t l = 0; l < leads; ++l) {
        y[l * n + i] = u[l * n + i] * f;
      }
    }
  }

  template <typename T>
  static T norm1(const T* x, std::size_t n) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::fabs(x[i]);
    }
    return acc;
  }

  template <typename T>
  static T norm_inf(const T* x, std::size_t n) {
    T best{};
    for (std::size_t i = 0; i < n; ++i) {
      const T mag = std::fabs(x[i]);
      if (mag > best) {
        best = mag;
      }
    }
    return best;
  }

  template <typename T>
  static void dual_band_analysis(const T* ext, const T* h0, const T* h1,
                                 T* out_a, T* out_d, std::size_t half_n,
                                 std::size_t taps) {
    for (std::size_t i = 0; i < half_n; ++i) {
      const T* s = ext + 2 * i;
      T a{};
      T d{};
      for (std::size_t j = 0; j < taps; ++j) {
        a += s[j] * h0[j];
        d += s[j] * h1[j];
      }
      out_a[i] = a;
      out_d[i] = d;
    }
  }

  template <typename T>
  static void dual_band_synthesis(const T* approx, const T* detail,
                                  const T* f0, const T* f1, T* x_ext,
                                  std::size_t half_n, std::size_t taps) {
    for (std::size_t i = 0; i < half_n; ++i) {
      const T a = approx[i];
      const T d = detail[i];
      T* x = x_ext + 2 * i;
      for (std::size_t j = 0; j < taps; ++j) {
        x[j] += a * f0[j] + d * f1[j];
      }
    }
  }
};

#if CSECG_HAS_NATIVE_SIMD

// ---------------------------------------------------------------------------
// kNative: real width-agnostic SIMD for the host via GCC/Clang vector
// extensions on 16-byte vectors (4 float / 2 double lanes), the baseline
// SSE2/NEON width. GCC holds a generic vector wider than the target's
// registers in memory, so a 32-byte vector on a build without -march
// would put every accumulator update through a store and a reload.
// Unaligned access goes through memcpy, which the compiler folds into
// vector load/store instructions.
// ---------------------------------------------------------------------------

template <typename T>
struct NativeVec {
  typedef T V __attribute__((vector_size(16)));
  static constexpr std::size_t kLanes = 16 / sizeof(T);
};

template <typename T>
inline typename NativeVec<T>::V vload(const T* p) {
  typename NativeVec<T>::V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
inline void vstore(T* p, typename NativeVec<T>::V v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

struct NativeOps {
  static constexpr const char* kName = "native";

  // Two accumulators of W lanes stand in for one 2W-lane accumulator (8
  // float / 4 double lanes): lane k sums the elements i = k (mod 2W) in
  // ascending order, and the lanes are added 0 .. 2W-1 before the scalar
  // tail, so the result does not depend on the vector width chosen.
  template <typename T>
  static T dot(const T* a, const T* b, std::size_t n) {
    using V = typename NativeVec<T>::V;
    constexpr std::size_t W = NativeVec<T>::kLanes;
    V lo{};
    V hi{};
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      lo += vload<T>(a + i) * vload<T>(b + i);
      hi += vload<T>(a + i + W) * vload<T>(b + i + W);
    }
    T sum{};
    for (std::size_t lane = 0; lane < W; ++lane) {
      sum += lo[lane];
    }
    for (std::size_t lane = 0; lane < W; ++lane) {
      sum += hi[lane];
    }
    for (; i < n; ++i) {
      sum += a[i] * b[i];
    }
    return sum;
  }

  template <typename T>
  static void axpy(T alpha, const T* x, T* y, std::size_t n) {
    constexpr std::size_t L = NativeVec<T>::kLanes;
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
      vstore<T>(y + i, vload<T>(y + i) + alpha * vload<T>(x + i));
    }
    for (; i < n; ++i) {
      y[i] += alpha * x[i];
    }
  }

  template <typename T>
  static void subtract(const T* a, const T* b, T* out, std::size_t n) {
    constexpr std::size_t L = NativeVec<T>::kLanes;
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
      vstore<T>(out + i, vload<T>(a + i) - vload<T>(b + i));
    }
    for (; i < n; ++i) {
      out[i] = a[i] - b[i];
    }
  }

  template <typename T>
  static void copy(const T* x, T* out, std::size_t n) {
    if (n != 0) {
      std::memmove(out, x, n * sizeof(T));
    }
  }

  // Branchless shrink (the Fig-4 trick in portable form); the loop body
  // is select-free arithmetic the autovectoriser turns into masked wide
  // ops.
  template <typename T>
  static void soft_threshold(const T* u, T t, T* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const T v = u[i];
      T mag = std::fabs(v) - t;
      mag = mag > T(0) ? mag : T(0);
      const T sign = static_cast<T>(v > T(0)) - static_cast<T>(v < T(0));
      y[i] = mag * sign;
    }
  }

  // Wide blocks over positions: the squared-norm accumulation runs as
  // full-width vector MACs lead by lead (ascending, so lanes match the
  // scalar order bitwise), the sqrt/divide factor is extracted per lane,
  // and the rescale is again one wide multiply per lead.
  template <typename T>
  static void group_soft_threshold(const T* u, T t, T* y, std::size_t leads,
                                   std::size_t n) {
    if (leads == 1) {
      soft_threshold(u, t, y, n);
      return;
    }
    using V = typename NativeVec<T>::V;
    constexpr std::size_t L = NativeVec<T>::kLanes;
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
      V sq{};
      for (std::size_t l = 0; l < leads; ++l) {
        const V v = vload<T>(u + l * n + i);
        sq += v * v;
      }
      V f{};
      for (std::size_t lane = 0; lane < L; ++lane) {
        const T g = std::sqrt(sq[lane]);
        T mag = g - t;
        mag = mag > T(0) ? mag : T(0);
        f[lane] = g > T(0) ? mag / g : T(0);
      }
      for (std::size_t l = 0; l < leads; ++l) {
        vstore<T>(y + l * n + i, vload<T>(u + l * n + i) * f);
      }
    }
    for (; i < n; ++i) {
      T sq{};
      for (std::size_t l = 0; l < leads; ++l) {
        const T v = u[l * n + i];
        sq += v * v;
      }
      const T g = std::sqrt(sq);
      T mag = g - t;
      mag = mag > T(0) ? mag : T(0);
      const T f = g > T(0) ? mag / g : T(0);
      for (std::size_t l = 0; l < leads; ++l) {
        y[l * n + i] = u[l * n + i] * f;
      }
    }
  }

  template <typename T>
  static T norm1(const T* x, std::size_t n) {
    return RefOps::norm1(x, n);
  }

  template <typename T>
  static T norm_inf(const T* x, std::size_t n) {
    return RefOps::norm_inf(x, n);
  }

  // Polyphase analysis: ext is split once into its even and odd phases,
  // so tap j of a block of outputs starting at i is the unit-stride
  // vector phase[j % 2][i + j / 2 ..]. A block of outputs spans kVectors
  // vectors, enough independent accumulator chains to hide the add
  // latency. Every lane sums from zero in ascending tap order, the
  // reference order, so results are bitwise the reference kernel's.
  template <typename T>
  static void dual_band_analysis(const T* ext, const T* h0, const T* h1,
                                 T* out_a, T* out_d, std::size_t half_n,
                                 std::size_t taps) {
    using V = typename NativeVec<T>::V;
    constexpr std::size_t W = NativeVec<T>::kLanes;
    constexpr std::size_t kVectors = 4;
    constexpr std::size_t L = kVectors * W;
    if (half_n < L) {
      RefOps::dual_band_analysis(ext, h0, h1, out_a, out_d, half_n, taps);
      return;
    }
    const std::size_t ext_len = 2 * half_n + taps - 1;
    static thread_local std::vector<T> phases;
    phases.resize(ext_len);
    T* even = phases.data();
    T* odd = even + (ext_len + 1) / 2;
    for (std::size_t k = 0; 2 * k < ext_len; ++k) {
      even[k] = ext[2 * k];
    }
    for (std::size_t k = 0; 2 * k + 1 < ext_len; ++k) {
      odd[k] = ext[2 * k + 1];
    }
    std::size_t i = 0;
    for (; i + L <= half_n; i += L) {
      V a[kVectors] = {};
      V d[kVectors] = {};
      for (std::size_t j = 0; j < taps; ++j) {
        const T* s = (j % 2 == 0 ? even : odd) + i + j / 2;
        for (std::size_t b = 0; b < kVectors; ++b) {
          const V v = vload<T>(s + b * W);
          a[b] += v * h0[j];
          d[b] += v * h1[j];
        }
      }
      for (std::size_t b = 0; b < kVectors; ++b) {
        vstore<T>(out_a + i + b * W, a[b]);
        vstore<T>(out_d + i + b * W, d[b]);
      }
    }
    RefOps::dual_band_analysis(ext + 2 * i, h0, h1, out_a + i, out_d + i,
                               half_n - i, taps);
  }

  // Gather (polyphase) synthesis. The reference scatter adds
  // a_i * f0[k - 2i] + d_i * f1[k - 2i] into cell k for ascending i; here
  // each cell starts from its current x_ext value and adds the same terms
  // in the same order, so the result is bitwise the scatter's for any
  // initial x_ext. Even cells 2p take the even taps and odd cells 2p + 1
  // the odd ones, both from approx/detail[p - m] at tap pair m, so a
  // block of consecutive p is unit-stride vector work with m descending
  // (i = p - m ascending). Cells whose sum is clipped by either end of
  // approx/detail take the scalar gather; odd filter lengths and levels
  // no longer than the filter, which are mostly such cells, take the
  // scatter.
  template <typename T>
  static void synthesis_cell(const T* approx, const T* detail, const T* f0,
                             const T* f1, T* x_ext, std::size_t half_n,
                             std::size_t taps, std::size_t k) {
    std::size_t i = k + 1 > taps ? (k + 2 - taps) / 2 : 0;
    const std::size_t i_end = std::min(half_n, k / 2 + 1);
    T acc = x_ext[k];
    for (; i < i_end; ++i) {
      const std::size_t j = k - 2 * i;
      acc += approx[i] * f0[j] + detail[i] * f1[j];
    }
    x_ext[k] = acc;
  }

  template <typename T>
  static void dual_band_synthesis(const T* approx, const T* detail,
                                  const T* f0, const T* f1, T* x_ext,
                                  std::size_t half_n, std::size_t taps) {
    using V = typename NativeVec<T>::V;
    constexpr std::size_t W = NativeVec<T>::kLanes;
    if (taps < 2 || taps % 2 != 0 || half_n < taps) {
      RefOps::dual_band_synthesis(approx, detail, f0, f1, x_ext, half_n,
                                  taps);
      return;
    }
    const std::size_t pairs = taps / 2;
    // Interior blocks need p - (pairs - 1) >= 0 and p < half_n.
    const std::size_t p_begin = pairs - 1;
    std::size_t p = p_begin;
    for (; p + W <= half_n; p += W) {
      T* x = x_ext + 2 * p;
      T ev[W] = {};
      T od[W] = {};
      for (std::size_t lane = 0; lane < W; ++lane) {
        ev[lane] = x[2 * lane];
        od[lane] = x[2 * lane + 1];
      }
      V xe = vload<T>(ev);
      V xo = vload<T>(od);
      for (std::size_t m = pairs; m-- > 0;) {
        const V a = vload<T>(approx + p - m);
        const V d = vload<T>(detail + p - m);
        xe += a * f0[2 * m] + d * f1[2 * m];
        xo += a * f0[2 * m + 1] + d * f1[2 * m + 1];
      }
      vstore<T>(ev, xe);
      vstore<T>(od, xo);
      for (std::size_t lane = 0; lane < W; ++lane) {
        x[2 * lane] = ev[lane];
        x[2 * lane + 1] = od[lane];
      }
    }
    for (std::size_t k = 0; k < 2 * p_begin; ++k) {
      synthesis_cell(approx, detail, f0, f1, x_ext, half_n, taps, k);
    }
    for (std::size_t k = 2 * p; k < 2 * half_n + taps - 1; ++k) {
      synthesis_cell(approx, detail, f0, f1, x_ext, half_n, taps, k);
    }
  }
};

#endif  // CSECG_HAS_NATIVE_SIMD

// ---------------------------------------------------------------------------
// Ops -> Backend adapter: one thin final class per implementation.
// ---------------------------------------------------------------------------

template <typename Ops, BackendKind K>
class OpsBackend final : public Backend {
 public:
  BackendKind kind() const override { return K; }
  const char* name() const override { return Ops::kName; }

  float dot(const float* a, const float* b, std::size_t n) const override {
    return Ops::template dot<float>(a, b, n);
  }
  void subtract(const float* a, const float* b, float* out,
                std::size_t n) const override {
    Ops::template subtract<float>(a, b, out, n);
  }
  void copy(const float* x, float* out, std::size_t n) const override {
    Ops::template copy<float>(x, out, n);
  }
  void soft_threshold(const float* u, float t, float* y,
                      std::size_t n) const override {
    Ops::template soft_threshold<float>(u, t, y, n);
  }
  float norm1(const float* x, std::size_t n) const override {
    return Ops::template norm1<float>(x, n);
  }
  float norm_inf(const float* x, std::size_t n) const override {
    return Ops::template norm_inf<float>(x, n);
  }
  void dual_band_analysis(const float* ext, const float* h0, const float* h1,
                          float* out_a, float* out_d, std::size_t half_n,
                          std::size_t taps) const override {
    Ops::template dual_band_analysis<float>(ext, h0, h1, out_a, out_d, half_n,
                                            taps);
  }
  void dual_band_synthesis(const float* approx, const float* detail,
                           const float* f0, const float* f1, float* x_ext,
                           std::size_t half_n,
                           std::size_t taps) const override {
    Ops::template dual_band_synthesis<float>(approx, detail, f0, f1, x_ext,
                                             half_n, taps);
  }

  double dot(const double* a, const double* b, std::size_t n) const override {
    return Ops::template dot<double>(a, b, n);
  }
  void subtract(const double* a, const double* b, double* out,
                std::size_t n) const override {
    Ops::template subtract<double>(a, b, out, n);
  }
  void copy(const double* x, double* out, std::size_t n) const override {
    Ops::template copy<double>(x, out, n);
  }
  void soft_threshold(const double* u, double t, double* y,
                      std::size_t n) const override {
    Ops::template soft_threshold<double>(u, t, y, n);
  }
  double norm1(const double* x, std::size_t n) const override {
    return Ops::template norm1<double>(x, n);
  }
  double norm_inf(const double* x, std::size_t n) const override {
    return Ops::template norm_inf<double>(x, n);
  }
  void dual_band_analysis(const double* ext, const double* h0,
                          const double* h1, double* out_a, double* out_d,
                          std::size_t half_n,
                          std::size_t taps) const override {
    Ops::template dual_band_analysis<double>(ext, h0, h1, out_a, out_d,
                                             half_n, taps);
  }
  void dual_band_synthesis(const double* approx, const double* detail,
                           const double* f0, const double* f1, double* x_ext,
                           std::size_t half_n,
                           std::size_t taps) const override {
    Ops::template dual_band_synthesis<double>(approx, detail, f0, f1, x_ext,
                                              half_n, taps);
  }

  // -- panel kernels --------------------------------------------------------
  // Elementwise panels collapse to one flat sweep over batch*n (per-element
  // arithmetic is independent, so this is bitwise-identical to the row
  // loop and lets the wide kernels run full-width blocks across row
  // boundaries instead of re-entering the kernel k times). Reductions and
  // the per-row-threshold shrink keep the row loop — per-row accumulation
  // order is part of the bitwise contract — but devirtualised onto the Ops
  // statics.
  void soft_threshold_batch(const float* u, const float* thresholds, float* y,
                            std::size_t batch, std::size_t n) const override {
    for (std::size_t b = 0; b < batch; ++b) {
      Ops::template soft_threshold<float>(u + b * n, thresholds[b], y + b * n,
                                          n);
    }
  }
  void soft_threshold_batch(const double* u, const double* thresholds,
                            double* y, std::size_t batch,
                            std::size_t n) const override {
    for (std::size_t b = 0; b < batch; ++b) {
      Ops::template soft_threshold<double>(u + b * n, thresholds[b], y + b * n,
                                           n);
    }
  }
  void group_soft_threshold_batch(const float* u, float t, float* y,
                                  std::size_t leads,
                                  std::size_t n) const override {
    Ops::template group_soft_threshold<float>(u, t, y, leads, n);
  }
  void group_soft_threshold_batch(const double* u, double t, double* y,
                                  std::size_t leads,
                                  std::size_t n) const override {
    Ops::template group_soft_threshold<double>(u, t, y, leads, n);
  }
  void dot_batch(const float* a, const float* b, float* out, std::size_t batch,
                 std::size_t n) const override {
    for (std::size_t r = 0; r < batch; ++r) {
      out[r] = Ops::template dot<float>(a + r * n, b + r * n, n);
    }
  }
  void dot_batch(const double* a, const double* b, double* out,
                 std::size_t batch, std::size_t n) const override {
    for (std::size_t r = 0; r < batch; ++r) {
      out[r] = Ops::template dot<double>(a + r * n, b + r * n, n);
    }
  }
  void axpy_batch(float alpha, const float* x, float* y, std::size_t batch,
                  std::size_t n) const override {
    Ops::template axpy<float>(alpha, x, y, batch * n);
  }
  void axpy_batch(double alpha, const double* x, double* y, std::size_t batch,
                  std::size_t n) const override {
    Ops::template axpy<double>(alpha, x, y, batch * n);
  }
  void subtract_batch(const float* a, const float* b, float* out,
                      std::size_t batch, std::size_t n) const override {
    Ops::template subtract<float>(a, b, out, batch * n);
  }
  void subtract_batch(const double* a, const double* b, double* out,
                      std::size_t batch, std::size_t n) const override {
    Ops::template subtract<double>(a, b, out, batch * n);
  }
  void copy_batch(const float* x, float* out, std::size_t batch,
                  std::size_t n) const override {
    Ops::template copy<float>(x, out, batch * n);
  }
  void copy_batch(const double* x, double* out, std::size_t batch,
                  std::size_t n) const override {
    Ops::template copy<double>(x, out, batch * n);
  }
  void norm1_batch(const float* x, float* out, std::size_t batch,
                   std::size_t n) const override {
    for (std::size_t b = 0; b < batch; ++b) {
      out[b] = Ops::template norm1<float>(x + b * n, n);
    }
  }
  void norm1_batch(const double* x, double* out, std::size_t batch,
                   std::size_t n) const override {
    for (std::size_t b = 0; b < batch; ++b) {
      out[b] = Ops::template norm1<double>(x + b * n, n);
    }
  }
};

// ---------------------------------------------------------------------------
// §IV-B cost formulas per kernel — exactly what the old instrumented
// kernels charged, as functions of the kernel sizes and the schedule
// alone, so CountingBackend prices any wrapped kernel set the same way.
// ---------------------------------------------------------------------------

inline OpCounts dot_cost(std::size_t n, KernelMode m) {
  return loop_cost(n, m, /*macs=*/n, /*ops=*/0, /*loads=*/2 * n,
                   /*stores=*/0);
}
inline OpCounts axpy_cost(std::size_t n, KernelMode m) {
  return loop_cost(n, m, n, 0, 2 * n, n);
}
inline OpCounts subtract_cost(std::size_t n, KernelMode m) {
  return loop_cost(n, m, 0, n, 2 * n, n);
}
inline OpCounts copy_cost(std::size_t n, KernelMode m) {
  return loop_cost(n, m, 0, 0, n, n);
}
inline OpCounts soft_threshold_cost(std::size_t n, KernelMode m) {
  if (m == KernelMode::kScalar) {
    // abs, sub, max, and the branchy sign fix: ~4 scalar ops/elt plus the
    // ARM<->NEON round trips the paper calls out; those surface in the
    // cycle model via scalar_op weighting.
    OpCounts c;
    c.scalar_op = 4 * static_cast<std::uint64_t>(n);
    c.loads = n;
    c.stores = n;
    return c;
  }
  // Fig 4: the comparison-as-value sign keeps the lane body branch-free.
  return loop_cost(n, KernelMode::kSimd4, 0, 5 * n, n, n);
}
inline OpCounts norm1_cost(std::size_t n, KernelMode m) {
  OpCounts c;
  if (m == KernelMode::kScalar) {
    c.scalar_op = n;
  } else {
    c.vector_op4 = n / 4;
    c.leftover_lane = n % 4;
  }
  c.loads = n;
  return c;
}
// Fig 5: the NEON schedule vectorises the analysis nest's outer loop,
// four output samples at a time.
inline OpCounts dual_band_analysis_cost(std::size_t half_n, std::size_t taps,
                                        KernelMode m) {
  const std::uint64_t macs = 2ull * static_cast<std::uint64_t>(half_n) * taps;
  return loop_cost(half_n, m, macs, 0,
                   static_cast<std::uint64_t>(half_n) * taps, 2 * half_n);
}
inline OpCounts dual_band_synthesis_cost(std::size_t half_n, std::size_t taps,
                                         KernelMode m) {
  const std::uint64_t macs = 2ull * static_cast<std::uint64_t>(half_n) * taps;
  // First loop_cost argument is taps: consecutive outputs overlap, so the
  // NEON synthesis schedule blocks the tap loop and the 4-lane packing
  // (and tail) follow taps, not half_n.
  return loop_cost(taps, m, macs, 0,
                   static_cast<std::uint64_t>(half_n) * (taps + 2),
                   static_cast<std::uint64_t>(half_n) * taps);
}

// Panel charges are batch x the per-row formula. OpCounts fields are all
// additive, so this is byte-identical to charging the row formula batch
// times — which is exactly what the sequential schedule does. (Pricing
// the flat sweep, loop_cost(batch*n, ...), would be wrong: the 4-lane
// tail of each row must be charged per row.)
inline OpCounts scaled(OpCounts c, std::size_t batch) {
  const std::uint64_t k = batch;
  c.scalar_mac *= k;
  c.scalar_op *= k;
  c.vector_mac4 *= k;
  c.vector_op4 *= k;
  c.leftover_lane *= k;
  c.loads *= k;
  c.stores *= k;
  return c;
}

// Group shrink: L x the per-row shrink apply plus the group-norm work —
// leads MACs per position for the squared-norm accumulation (re-reading
// every lead's coefficient) and 2 ops per position for the sqrt/divide
// factor. leads == 1 charges exactly the plain kernel's formula, so the
// counted OpCounts stay byte-identical to the single-lead stack.
inline OpCounts group_soft_threshold_cost(std::size_t leads, std::size_t n,
                                          KernelMode m) {
  if (leads <= 1) {
    return soft_threshold_cost(n, m);
  }
  OpCounts c = scaled(soft_threshold_cost(n, m), leads);
  c += loop_cost(n, m, /*macs=*/static_cast<std::uint64_t>(leads) * n,
                 /*ops=*/2 * static_cast<std::uint64_t>(n),
                 /*loads=*/static_cast<std::uint64_t>(leads) * n,
                 /*stores=*/0);
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Singletons.
// ---------------------------------------------------------------------------

const Backend& reference_backend() {
  static const OpsBackend<RefOps, BackendKind::kReference> instance;
  return instance;
}

const Backend& native_backend() {
#if CSECG_HAS_NATIVE_SIMD
  static const OpsBackend<NativeOps, BackendKind::kNative> instance;
  return instance;
#else
  return reference_backend();
#endif
}

bool native_simd_available() { return CSECG_HAS_NATIVE_SIMD != 0; }

const Backend& default_backend() { return reference_backend(); }

const Backend* backend_by_name(std::string_view name) {
  if (name == "reference") {
    return &reference_backend();
  }
  if (name == "native") {
    return &native_backend();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// CountingBackend: charge the schedule's formula, then run the wrapped
// kernel. The charge never depends on the wrapped kernel's result, and
// plain kernels charge nothing, so the order is immaterial.
// ---------------------------------------------------------------------------

CountingBackend::CountingBackend(const Backend& inner, KernelMode schedule)
    : inner_(inner), schedule_(schedule) {
  std::snprintf(name_, sizeof(name_), "counting(%s, %s)", inner_.name(),
                schedule_ == KernelMode::kScalar ? "scalar" : "simd4");
}

float CountingBackend::dot(const float* a, const float* b,
                           std::size_t n) const {
  charge(dot_cost(n, schedule_));
  return inner_.dot(a, b, n);
}

void CountingBackend::subtract(const float* a, const float* b, float* out,
                               std::size_t n) const {
  charge(subtract_cost(n, schedule_));
  inner_.subtract(a, b, out, n);
}

void CountingBackend::copy(const float* x, float* out, std::size_t n) const {
  charge(copy_cost(n, schedule_));
  inner_.copy(x, out, n);
}

void CountingBackend::soft_threshold(const float* u, float t, float* y,
                                     std::size_t n) const {
  charge(soft_threshold_cost(n, schedule_));
  inner_.soft_threshold(u, t, y, n);
}

float CountingBackend::norm1(const float* x, std::size_t n) const {
  charge(norm1_cost(n, schedule_));
  return inner_.norm1(x, n);
}

// Deliberately uncharged: the decoder's lambda calibration read has never
// been part of the modelled op mix.
float CountingBackend::norm_inf(const float* x, std::size_t n) const {
  return inner_.norm_inf(x, n);
}

void CountingBackend::dual_band_analysis(const float* ext, const float* h0,
                                         const float* h1, float* out_a,
                                         float* out_d, std::size_t half_n,
                                         std::size_t taps) const {
  charge(dual_band_analysis_cost(half_n, taps, schedule_));
  inner_.dual_band_analysis(ext, h0, h1, out_a, out_d, half_n, taps);
}

void CountingBackend::dual_band_synthesis(const float* approx,
                                          const float* detail,
                                          const float* f0, const float* f1,
                                          float* x_ext, std::size_t half_n,
                                          std::size_t taps) const {
  charge(dual_band_synthesis_cost(half_n, taps, schedule_));
  inner_.dual_band_synthesis(approx, detail, f0, f1, x_ext, half_n, taps);
}

double CountingBackend::dot(const double* a, const double* b,
                            std::size_t n) const {
  charge(dot_cost(n, schedule_));
  return inner_.dot(a, b, n);
}

void CountingBackend::subtract(const double* a, const double* b, double* out,
                               std::size_t n) const {
  charge(subtract_cost(n, schedule_));
  inner_.subtract(a, b, out, n);
}

void CountingBackend::copy(const double* x, double* out,
                           std::size_t n) const {
  charge(copy_cost(n, schedule_));
  inner_.copy(x, out, n);
}

void CountingBackend::soft_threshold(const double* u, double t, double* y,
                                     std::size_t n) const {
  charge(soft_threshold_cost(n, schedule_));
  inner_.soft_threshold(u, t, y, n);
}

double CountingBackend::norm1(const double* x, std::size_t n) const {
  charge(norm1_cost(n, schedule_));
  return inner_.norm1(x, n);
}

double CountingBackend::norm_inf(const double* x, std::size_t n) const {
  return inner_.norm_inf(x, n);
}

void CountingBackend::dual_band_analysis(const double* ext, const double* h0,
                                         const double* h1, double* out_a,
                                         double* out_d, std::size_t half_n,
                                         std::size_t taps) const {
  charge(dual_band_analysis_cost(half_n, taps, schedule_));
  inner_.dual_band_analysis(ext, h0, h1, out_a, out_d, half_n, taps);
}

void CountingBackend::dual_band_synthesis(const double* approx,
                                          const double* detail,
                                          const double* f0, const double* f1,
                                          double* x_ext, std::size_t half_n,
                                          std::size_t taps) const {
  charge(dual_band_synthesis_cost(half_n, taps, schedule_));
  inner_.dual_band_synthesis(approx, detail, f0, f1, x_ext, half_n, taps);
}

// Panel kernels: batch x the per-row formula (see scaled()) —
// byte-identical to the sequential row-by-row schedule.

void CountingBackend::soft_threshold_batch(const float* u,
                                           const float* thresholds, float* y,
                                           std::size_t batch,
                                           std::size_t n) const {
  charge(scaled(soft_threshold_cost(n, schedule_), batch));
  inner_.soft_threshold_batch(u, thresholds, y, batch, n);
}

void CountingBackend::soft_threshold_batch(const double* u,
                                           const double* thresholds, double* y,
                                           std::size_t batch,
                                           std::size_t n) const {
  charge(scaled(soft_threshold_cost(n, schedule_), batch));
  inner_.soft_threshold_batch(u, thresholds, y, batch, n);
}

void CountingBackend::group_soft_threshold_batch(const float* u, float t,
                                                 float* y, std::size_t leads,
                                                 std::size_t n) const {
  charge(group_soft_threshold_cost(leads, n, schedule_));
  inner_.group_soft_threshold_batch(u, t, y, leads, n);
}

void CountingBackend::group_soft_threshold_batch(const double* u, double t,
                                                 double* y, std::size_t leads,
                                                 std::size_t n) const {
  charge(group_soft_threshold_cost(leads, n, schedule_));
  inner_.group_soft_threshold_batch(u, t, y, leads, n);
}

void CountingBackend::dot_batch(const float* a, const float* b, float* out,
                                std::size_t batch, std::size_t n) const {
  charge(scaled(dot_cost(n, schedule_), batch));
  inner_.dot_batch(a, b, out, batch, n);
}

void CountingBackend::dot_batch(const double* a, const double* b, double* out,
                                std::size_t batch, std::size_t n) const {
  charge(scaled(dot_cost(n, schedule_), batch));
  inner_.dot_batch(a, b, out, batch, n);
}

void CountingBackend::axpy_batch(float alpha, const float* x, float* y,
                                 std::size_t batch, std::size_t n) const {
  charge(scaled(axpy_cost(n, schedule_), batch));
  inner_.axpy_batch(alpha, x, y, batch, n);
}

void CountingBackend::axpy_batch(double alpha, const double* x, double* y,
                                 std::size_t batch, std::size_t n) const {
  charge(scaled(axpy_cost(n, schedule_), batch));
  inner_.axpy_batch(alpha, x, y, batch, n);
}

void CountingBackend::subtract_batch(const float* a, const float* b,
                                     float* out, std::size_t batch,
                                     std::size_t n) const {
  charge(scaled(subtract_cost(n, schedule_), batch));
  inner_.subtract_batch(a, b, out, batch, n);
}

void CountingBackend::subtract_batch(const double* a, const double* b,
                                     double* out, std::size_t batch,
                                     std::size_t n) const {
  charge(scaled(subtract_cost(n, schedule_), batch));
  inner_.subtract_batch(a, b, out, batch, n);
}

void CountingBackend::copy_batch(const float* x, float* out,
                                 std::size_t batch, std::size_t n) const {
  charge(scaled(copy_cost(n, schedule_), batch));
  inner_.copy_batch(x, out, batch, n);
}

void CountingBackend::copy_batch(const double* x, double* out,
                                 std::size_t batch, std::size_t n) const {
  charge(scaled(copy_cost(n, schedule_), batch));
  inner_.copy_batch(x, out, batch, n);
}

void CountingBackend::norm1_batch(const float* x, float* out,
                                  std::size_t batch, std::size_t n) const {
  charge(scaled(norm1_cost(n, schedule_), batch));
  inner_.norm1_batch(x, out, batch, n);
}

void CountingBackend::norm1_batch(const double* x, double* out,
                                  std::size_t batch, std::size_t n) const {
  charge(scaled(norm1_cost(n, schedule_), batch));
  inner_.norm1_batch(x, out, batch, n);
}

const CountingBackend& counting_scalar_backend() {
  static const CountingBackend instance(reference_backend(),
                                        KernelMode::kScalar);
  return instance;
}

const CountingBackend& counting_simd4_backend() {
  static const CountingBackend instance(reference_backend(),
                                        KernelMode::kSimd4);
  return instance;
}

}  // namespace csecg::linalg
