#ifndef CSECG_LINALG_BACKEND_HPP
#define CSECG_LINALG_BACKEND_HPP

/// \file backend.hpp
/// The single kernel dispatch layer of the numeric stack.
///
/// Every dense primitive the decoder touches — copy/subtract, dot and the
/// norms, the Fig-4 soft threshold, the wavelet filter-bank steps and their
/// panel forms — is a virtual on `Backend`, in both float and double. Two
/// kernel sets execute:
///
///   kReference — straightforward templated loops; the numerical oracle
///                and the library default.
///   kNative    — real width-agnostic SIMD for the host, built on
///                GCC/Clang vector extensions; compiled only when
///                CSECG_NATIVE_SIMD is on and the compiler supports it,
///                otherwise it falls back to the reference loops.
///
/// The paper's two iPhone 3GS code shapes (§IV-B: the VFP loops and the
/// NEON 4-lane schedule) are priced, not executed. A CountingBackend
/// forwards every call to the kernel set it wraps and charges the chosen
/// KernelMode's cost formulas — a function of the sizes alone — to the
/// active OpCounterScope; platform::CortexA8Model turns that mix into the
/// paper's 2.43x speed-up. The hot path of a plain backend has no counter
/// branch at all.
///
/// Solvers, operators and the wavelet transform take a `const Backend&`
/// (or a pointer in their options structs) instead of threading a raw
/// KernelMode through every signature.

#include <cstddef>
#include <string_view>

#include "csecg/linalg/kernels.hpp"

namespace csecg::linalg {

class CountingBackend;

/// Which kernel set a Backend executes.
enum class BackendKind {
  kReference,  ///< templated reference loops (ground truth)
  kNative,     ///< host-native wide SIMD (vector extensions)
};

/// Abstract kernel vocabulary. Implementations are stateless and
/// thread-safe; the accessor functions below hand out shared singletons,
/// so a `const Backend*` stored in an options struct stays valid for the
/// program's lifetime.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;
  virtual const char* name() const = 0;

  // -- float kernels ------------------------------------------------------
  /// Dot product <a, b> over n elements.
  virtual float dot(const float* a, const float* b, std::size_t n) const = 0;
  /// out[i] = a[i] - b[i].
  virtual void subtract(const float* a, const float* b, float* out,
                        std::size_t n) const = 0;
  /// out[i] = x[i]. Pure data movement; counted (n loads + n stores, no
  /// ALU work) so solver bookkeeping copies stay visible to the model.
  virtual void copy(const float* x, float* out, std::size_t n) const = 0;
  /// y[i] = sign(u[i]) * max(|u[i]| - t, 0).
  virtual void soft_threshold(const float* u, float t, float* y,
                              std::size_t n) const = 0;
  /// Sum of |x[i]|.
  virtual float norm1(const float* x, std::size_t n) const = 0;
  /// Max of |x[i]| (0 for n == 0). Never charged by CountingBackend: the
  /// decoder's lambda calibration read has always been outside the model.
  virtual float norm_inf(const float* x, std::size_t n) const = 0;
  /// Decimating two-band analysis step of the wavelet filter bank:
  ///   out_a[i] = sum_j ext[2i + j] * h0[j]
  ///   out_d[i] = sum_j ext[2i + j] * h1[j]
  /// ext must have 2 * half_n + taps - 1 readable elements.
  virtual void dual_band_analysis(const float* ext, const float* h0,
                                  const float* h1, float* out_a, float* out_d,
                                  std::size_t half_n,
                                  std::size_t taps) const = 0;
  /// Two-band synthesis (inverse filter bank) accumulation:
  ///   x_ext[2i + j] += approx[i] * f0[j] + detail[i] * f1[j]
  /// over 2 * half_n + taps - 1 elements of x_ext. Every cell adds its
  /// terms onto its current value in ascending i, so both kernel sets
  /// give the reference's bits for any initial x_ext (the transform
  /// passes zeros).
  virtual void dual_band_synthesis(const float* approx, const float* detail,
                                   const float* f0, const float* f1,
                                   float* x_ext, std::size_t half_n,
                                   std::size_t taps) const = 0;

  // -- double kernels (same vocabulary) ------------------------------------
  virtual double dot(const double* a, const double* b,
                     std::size_t n) const = 0;
  virtual void subtract(const double* a, const double* b, double* out,
                        std::size_t n) const = 0;
  virtual void copy(const double* x, double* out, std::size_t n) const = 0;
  virtual void soft_threshold(const double* u, double t, double* y,
                              std::size_t n) const = 0;
  virtual double norm1(const double* x, std::size_t n) const = 0;
  virtual double norm_inf(const double* x, std::size_t n) const = 0;
  virtual void dual_band_analysis(const double* ext, const double* h0,
                                  const double* h1, double* out_a,
                                  double* out_d, std::size_t half_n,
                                  std::size_t taps) const = 0;
  virtual void dual_band_synthesis(const double* approx, const double* detail,
                                   const double* f0, const double* f1,
                                   double* x_ext, std::size_t half_n,
                                   std::size_t taps) const = 0;

  // -- derived kernels -----------------------------------------------------
  /// Squared Euclidean norm; an alias of dot(r, r) (and charged as one),
  /// matching the original instrumented kernels.
  float norm2_squared(const float* r, std::size_t n) const {
    return dot(r, r, n);
  }
  double norm2_squared(const double* r, std::size_t n) const {
    return dot(r, r, n);
  }

  // -- panel (multi-vector) kernels ---------------------------------------
  // The GEMM-flavoured vocabulary batched FISTA iterates on: each call
  // processes `batch` packed rows of n elements in one sweep. Contracts:
  //
  //   * Elementwise panels (axpy/subtract/copy/soft_threshold) may use any
  //     traversal — flat, blocked, per-row — because per-element arithmetic
  //     is independent; every implementation is bitwise-identical to the
  //     row-by-row loop over the single-row kernel.
  //   * Reduction panels (dot_batch/norm1_batch) MUST accumulate each row
  //     in the same order as the single-vector kernel so per-row results
  //     stay bitwise-identical; only the row loop itself is batched.
  //   * CountingBackend charges every panel kernel exactly batch x the
  //     per-row cost formula — byte-identical to the sequential schedule
  //     (a flat cost over batch*n would mis-count the per-row 4-lane
  //     tails).

  /// Batched soft threshold over `batch` packed rows of n elements with a
  /// per-row threshold.
  virtual void soft_threshold_batch(const float* u, const float* thresholds,
                                    float* y, std::size_t batch,
                                    std::size_t n) const = 0;
  virtual void soft_threshold_batch(const double* u, const double* thresholds,
                                    double* y, std::size_t batch,
                                    std::size_t n) const = 0;
  /// Group (row-wise l2) shrink over `leads` packed rows of n elements
  /// sharing one threshold — the proximal step of the group-lasso
  /// objective joint multi-lead recovery minimises. At each position i
  /// the lead-axis norm g_i = sqrt(sum_l u_row_l[i]^2) scales every
  /// lead's coefficient by max(g_i - t, 0) / g_i. All implementations
  /// accumulate g_i in ascending lead order, so per-element results are
  /// bitwise-identical across backends. leads == 1 delegates to the
  /// plain soft_threshold kernel — required for the L = 1 bitwise pin,
  /// because the factor form u * max(g-t,0)/g is not bit-identical to
  /// sign(u) * max(|u|-t, 0).
  virtual void group_soft_threshold_batch(const float* u, float t, float* y,
                                          std::size_t leads,
                                          std::size_t n) const = 0;
  virtual void group_soft_threshold_batch(const double* u, double t, double* y,
                                          std::size_t leads,
                                          std::size_t n) const = 0;
  /// Per-row dot products over packed rows: out[b] = <a_row_b, b_row_b>.
  virtual void dot_batch(const float* a, const float* b, float* out,
                         std::size_t batch, std::size_t n) const = 0;
  virtual void dot_batch(const double* a, const double* b, double* out,
                         std::size_t batch, std::size_t n) const = 0;
  /// y_row_b[i] += alpha * x_row_b[i] with one shared alpha (the batched
  /// gradient step: every row shares -2*step).
  virtual void axpy_batch(float alpha, const float* x, float* y,
                          std::size_t batch, std::size_t n) const = 0;
  virtual void axpy_batch(double alpha, const double* x, double* y,
                          std::size_t batch, std::size_t n) const = 0;
  /// out_row_b[i] = a_row_b[i] - b_row_b[i].
  virtual void subtract_batch(const float* a, const float* b, float* out,
                              std::size_t batch, std::size_t n) const = 0;
  virtual void subtract_batch(const double* a, const double* b, double* out,
                              std::size_t batch, std::size_t n) const = 0;
  /// out_row_b[i] = x_row_b[i].
  virtual void copy_batch(const float* x, float* out, std::size_t batch,
                          std::size_t n) const = 0;
  virtual void copy_batch(const double* x, double* out, std::size_t batch,
                          std::size_t n) const = 0;
  /// Per-row l1 norms: out[b] = sum_i |x_row_b[i]|.
  virtual void norm1_batch(const float* x, float* out, std::size_t batch,
                           std::size_t n) const = 0;
  virtual void norm1_batch(const double* x, double* out, std::size_t batch,
                           std::size_t n) const = 0;

  // -- accounting hook -----------------------------------------------------
  /// The CountingBackend itself, or nullptr on a plain backend. Callers
  /// that charge composite costs (sparse operator applies, solver
  /// bookkeeping loops) price them against its schedule() and skip the
  /// bookkeeping entirely on plain backends.
  virtual const CountingBackend* counting() const { return nullptr; }
};

/// Shared singletons. When native SIMD is compiled out
/// (CSECG_NATIVE_SIMD=OFF or no vector-extension support),
/// `native_backend()` returns the reference singleton itself — callers
/// asking for "native" degrade to correct portable loops; check
/// native_simd_available() to know which you got.
const Backend& reference_backend();
const Backend& native_backend();

/// Library-wide default: the reference loops, the numerical oracle.
/// Tools default to native instead.
const Backend& default_backend();

/// True when the kNative implementation was compiled (CSECG_NATIVE_SIMD
/// on a compiler with vector-extension support).
bool native_simd_available();

/// Maps "reference" | "native" to a backend singleton; nullptr for
/// anything else.
const Backend* backend_by_name(std::string_view name);

/// Decorator that forwards every kernel to a wrapped kernel set and
/// charges the §IV-B operation-mix formulas of \p schedule to the active
/// OpCounterScope — the Cortex-A8 model's input. The charge depends only
/// on the kernel sizes and the schedule, never on what executes, so
/// counting over reference or native loops prices the same mix.
class CountingBackend final : public Backend {
 public:
  /// The one-argument form prices the NEON schedule the paper shipped.
  explicit CountingBackend(const Backend& inner,
                           KernelMode schedule = KernelMode::kSimd4);

  const Backend& inner() const { return inner_; }
  /// The §IV-B schedule every charge is priced against.
  KernelMode schedule() const { return schedule_; }
  BackendKind kind() const override { return inner_.kind(); }
  const char* name() const override { return name_; }
  const CountingBackend* counting() const override { return this; }

  float dot(const float* a, const float* b, std::size_t n) const override;
  void subtract(const float* a, const float* b, float* out,
                std::size_t n) const override;
  void copy(const float* x, float* out, std::size_t n) const override;
  void soft_threshold(const float* u, float t, float* y,
                      std::size_t n) const override;
  float norm1(const float* x, std::size_t n) const override;
  float norm_inf(const float* x, std::size_t n) const override;
  void dual_band_analysis(const float* ext, const float* h0, const float* h1,
                          float* out_a, float* out_d, std::size_t half_n,
                          std::size_t taps) const override;
  void dual_band_synthesis(const float* approx, const float* detail,
                           const float* f0, const float* f1, float* x_ext,
                           std::size_t half_n, std::size_t taps) const override;

  double dot(const double* a, const double* b, std::size_t n) const override;
  void subtract(const double* a, const double* b, double* out,
                std::size_t n) const override;
  void copy(const double* x, double* out, std::size_t n) const override;
  void soft_threshold(const double* u, double t, double* y,
                      std::size_t n) const override;
  double norm1(const double* x, std::size_t n) const override;
  double norm_inf(const double* x, std::size_t n) const override;
  void dual_band_analysis(const double* ext, const double* h0,
                          const double* h1, double* out_a, double* out_d,
                          std::size_t half_n, std::size_t taps) const override;
  void dual_band_synthesis(const double* approx, const double* detail,
                           const double* f0, const double* f1, double* x_ext,
                           std::size_t half_n, std::size_t taps) const override;

  // Panel kernels forward to the wrapped panel implementation and charge
  // batch x the per-row cost — byte-identical to running the sequential
  // schedule row by row.
  void soft_threshold_batch(const float* u, const float* thresholds, float* y,
                            std::size_t batch, std::size_t n) const override;
  void soft_threshold_batch(const double* u, const double* thresholds,
                            double* y, std::size_t batch,
                            std::size_t n) const override;
  void group_soft_threshold_batch(const float* u, float t, float* y,
                                  std::size_t leads,
                                  std::size_t n) const override;
  void group_soft_threshold_batch(const double* u, double t, double* y,
                                  std::size_t leads,
                                  std::size_t n) const override;
  void dot_batch(const float* a, const float* b, float* out, std::size_t batch,
                 std::size_t n) const override;
  void dot_batch(const double* a, const double* b, double* out,
                 std::size_t batch, std::size_t n) const override;
  void axpy_batch(float alpha, const float* x, float* y, std::size_t batch,
                  std::size_t n) const override;
  void axpy_batch(double alpha, const double* x, double* y, std::size_t batch,
                  std::size_t n) const override;
  void subtract_batch(const float* a, const float* b, float* out,
                      std::size_t batch, std::size_t n) const override;
  void subtract_batch(const double* a, const double* b, double* out,
                      std::size_t batch, std::size_t n) const override;
  void copy_batch(const float* x, float* out, std::size_t batch,
                  std::size_t n) const override;
  void copy_batch(const double* x, double* out, std::size_t batch,
                  std::size_t n) const override;
  void norm1_batch(const float* x, float* out, std::size_t batch,
                   std::size_t n) const override;
  void norm1_batch(const double* x, double* out, std::size_t batch,
                   std::size_t n) const override;

 private:
  const Backend& inner_;
  KernelMode schedule_;
  char name_[40];
};

/// Shared counting singletons for the two §IV-B schedules over the
/// reference loops — what the Cortex-A8 benches compose.
const CountingBackend& counting_scalar_backend();
const CountingBackend& counting_simd4_backend();

}  // namespace csecg::linalg

#endif  // CSECG_LINALG_BACKEND_HPP
