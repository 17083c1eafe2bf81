#ifndef CSECG_DSP_DWT_HPP
#define CSECG_DSP_DWT_HPP

/// \file dwt.hpp
/// Multi-level periodic discrete wavelet transform.
///
/// This is the Psi / Psi^T pair of the paper's recovery problem
/// min ||alpha||_1 s.t. ||Phi Psi alpha - y||_2 <= sigma: `inverse`
/// synthesises x = Psi alpha and `forward` computes alpha = Psi^T x.
/// Periodic (circular) boundary handling keeps the basis exactly
/// orthonormal, so forward and inverse are true adjoints — a property the
/// solver tests rely on.
///
/// Both precisions route their filter loops through a linalg::Backend
/// (these are the "filtering functions" whose vectorisation §IV-B
/// describes); the default is the reference backend, and the decoder
/// passes its configured backend through the CS operator.

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "csecg/dsp/wavelet.hpp"
#include "csecg/linalg/backend.hpp"

namespace csecg::dsp {

/// Describes where each subband lives inside the flat coefficient vector.
/// Layout: [approx_L | detail_L | detail_{L-1} | ... | detail_1].
struct SubbandLayout {
  std::size_t approx_offset = 0;
  std::size_t approx_size = 0;
  /// detail_offsets[l] / detail_sizes[l] for l = 0 (coarsest) .. levels-1.
  std::vector<std::size_t> detail_offsets;
  std::vector<std::size_t> detail_sizes;
};

class WaveletTransform {
 public:
  /// Prepares an L-level transform for signals of \p length samples.
  /// \p length must be divisible by 2^levels, levels >= 1.
  WaveletTransform(Wavelet wavelet, std::size_t length, int levels);

  std::size_t length() const { return length_; }
  int levels() const { return levels_; }
  const Wavelet& wavelet() const { return wavelet_; }
  SubbandLayout layout() const;

  /// coeffs = Psi^T x (analysis). Both spans have length() elements.
  template <typename T>
  void forward(
      std::span<const T> x, std::span<T> coeffs,
      const linalg::Backend& backend = linalg::reference_backend()) const;

  /// x = Psi coeffs (synthesis).
  template <typename T>
  void inverse(
      std::span<const T> coeffs, std::span<T> x,
      const linalg::Backend& backend = linalg::reference_backend()) const;

  /// Panel analysis: coeffs_row_b = Psi^T x_row_b over `batch` packed rows
  /// (both spans batch * length()). Runs forward() on each row in turn,
  /// so results are bitwise-equal to the sequential loop.
  template <typename T>
  void forward_batch(
      std::span<const T> x, std::span<T> coeffs, std::size_t batch,
      const linalg::Backend& backend = linalg::reference_backend()) const;

  /// Panel synthesis: x_row_b = Psi coeffs_row_b; same contract as
  /// forward_batch.
  template <typename T>
  void inverse_batch(
      std::span<const T> coeffs, std::span<T> x, std::size_t batch,
      const linalg::Backend& backend = linalg::reference_backend()) const;

 private:
  /// The analysis (lowpass, highpass) pair in precision T.
  template <typename T>
  std::pair<const T*, const T*> filters() const {
    if constexpr (std::is_same_v<T, float>) {
      return {h_f_.data(), g_f_.data()};
    } else {
      return {h_d_.data(), g_d_.data()};
    }
  }

  Wavelet wavelet_;
  std::size_t length_;
  int levels_;
  // Filters converted once per precision.
  std::vector<double> h_d_, g_d_;
  std::vector<float> h_f_, g_f_;
};

}  // namespace csecg::dsp

#endif  // CSECG_DSP_DWT_HPP
