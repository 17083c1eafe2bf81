#include "csecg/dsp/dwt.hpp"

#include <algorithm>

#include "csecg/util/error.hpp"

namespace csecg::dsp {

namespace {

/// Fills e[0, size) with the periodic extension of s[0, n): one copy of
/// the level, then a wrap that reads back what it already wrote, so a
/// tail longer than n (taps - 1 > n on the coarse levels) repeats too.
template <typename T>
void periodic_extend(const T* s, std::size_t n, T* e, std::size_t size) {
  std::copy(s, s + n, e);
  for (std::size_t i = n; i < size; ++i) {
    e[i] = e[i - n];
  }
}

/// Folds the periodic tail e[n, size) back onto the head e[0, n) in place.
/// Each head cell adds its wrapped images in ascending position order.
template <typename T>
void fold_tail(T* e, std::size_t n, std::size_t size) {
  for (std::size_t base = n; base < size; base += n) {
    const std::size_t count = std::min(n, size - base);
    for (std::size_t r = 0; r < count; ++r) {
      e[r] += e[base + r];
    }
  }
}

}  // namespace

WaveletTransform::WaveletTransform(Wavelet wavelet, std::size_t length,
                                   int levels)
    : wavelet_(std::move(wavelet)), length_(length), levels_(levels) {
  CSECG_CHECK(levels_ >= 1, "need at least one decomposition level");
  CSECG_CHECK(levels_ < 63, "level count out of range");
  CSECG_CHECK(length_ % (std::size_t{1} << levels_) == 0,
              "signal length must be divisible by 2^levels");
  CSECG_CHECK(length_ >> levels_ >= 1, "too many levels for this length");
  h_d_ = wavelet_.analysis_lowpass();
  g_d_ = wavelet_.analysis_highpass();
  h_f_.assign(h_d_.begin(), h_d_.end());
  g_f_.assign(g_d_.begin(), g_d_.end());
}

SubbandLayout WaveletTransform::layout() const {
  SubbandLayout layout;
  layout.approx_offset = 0;
  layout.approx_size = length_ >> levels_;
  layout.detail_offsets.resize(static_cast<std::size_t>(levels_));
  layout.detail_sizes.resize(static_cast<std::size_t>(levels_));
  std::size_t offset = layout.approx_size;
  for (int l = 0; l < levels_; ++l) {
    // l = 0 is the coarsest detail band (same size as the approximation).
    const std::size_t size = length_ >> (levels_ - l);
    layout.detail_offsets[static_cast<std::size_t>(l)] = offset;
    layout.detail_sizes[static_cast<std::size_t>(l)] = size;
    offset += size;
  }
  return layout;
}

template <typename T>
void WaveletTransform::forward(std::span<const T> x, std::span<T> coeffs,
                               const linalg::Backend& backend) const {
  CSECG_CHECK(x.size() == length_ && coeffs.size() == length_,
              "forward: size mismatch");
  const std::size_t taps = wavelet_.length();
  const auto [h, g] = filters<T>();

  // Scratch is thread-local so the per-iteration FISTA applies never
  // allocate in steady state (the buffer only grows; resize() reuses
  // capacity once warmed up). Sized per thread, so concurrent transforms
  // on a decode worker pool do not contend.
  thread_local std::vector<T> ext;
  // The first n coefficients always hold the n-point transform of the
  // current approximation: its detail half goes to [half, n), and the
  // coarser content keeps refining [0, half). Each level is extended
  // before it is overwritten, so x may alias coeffs.
  const T* approx = x.data();
  std::size_t n = length_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = n / 2;
    ext.resize(n + taps - 1);
    periodic_extend(approx, n, ext.data(), ext.size());
    backend.dual_band_analysis(ext.data(), h, g, coeffs.data(),
                               coeffs.data() + half, half, taps);
    approx = coeffs.data();
    n = half;
  }
}

template <typename T>
void WaveletTransform::inverse(std::span<const T> coeffs, std::span<T> x,
                               const linalg::Backend& backend) const {
  CSECG_CHECK(coeffs.size() == length_ && x.size() == length_,
              "inverse: size mismatch");
  const std::size_t taps = wavelet_.length();
  const auto [h, g] = filters<T>();

  // Thread-local for the same steady-state allocation-free reason as in
  // forward(). Each level accumulates into x_ext, folds its periodic tail
  // in place and becomes the next level's approximation (the first n
  // cells of `approx`).
  thread_local std::vector<T> approx;
  thread_local std::vector<T> x_ext;
  const T* a = coeffs.data();
  std::size_t half = length_ >> levels_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t n = 2 * half;
    x_ext.assign(n + taps - 1, T{});
    backend.dual_band_synthesis(a, coeffs.data() + half, h, g, x_ext.data(),
                                half, taps);
    fold_tail(x_ext.data(), n, x_ext.size());
    approx.swap(x_ext);
    a = approx.data();
    half = n;
  }
  std::copy(a, a + length_, x.begin());
}

template <typename T>
void WaveletTransform::forward_batch(std::span<const T> x, std::span<T> coeffs,
                                     std::size_t batch,
                                     const linalg::Backend& backend) const {
  CSECG_CHECK(x.size() == batch * length_ && coeffs.size() == batch * length_,
              "forward_batch: size mismatch");
  for (std::size_t b = 0; b < batch; ++b) {
    forward(x.subspan(b * length_, length_),
            coeffs.subspan(b * length_, length_), backend);
  }
}

template <typename T>
void WaveletTransform::inverse_batch(std::span<const T> coeffs,
                                     std::span<T> x, std::size_t batch,
                                     const linalg::Backend& backend) const {
  CSECG_CHECK(coeffs.size() == batch * length_ && x.size() == batch * length_,
              "inverse_batch: size mismatch");
  for (std::size_t b = 0; b < batch; ++b) {
    inverse(coeffs.subspan(b * length_, length_),
            x.subspan(b * length_, length_), backend);
  }
}

template void WaveletTransform::forward<float>(std::span<const float>,
                                               std::span<float>,
                                               const linalg::Backend&) const;
template void WaveletTransform::forward<double>(std::span<const double>,
                                                std::span<double>,
                                                const linalg::Backend&) const;
template void WaveletTransform::inverse<float>(std::span<const float>,
                                               std::span<float>,
                                               const linalg::Backend&) const;
template void WaveletTransform::inverse<double>(std::span<const double>,
                                                std::span<double>,
                                                const linalg::Backend&) const;
template void WaveletTransform::forward_batch<float>(
    std::span<const float>, std::span<float>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::forward_batch<double>(
    std::span<const double>, std::span<double>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::inverse_batch<float>(
    std::span<const float>, std::span<float>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::inverse_batch<double>(
    std::span<const double>, std::span<double>, std::size_t,
    const linalg::Backend&) const;

}  // namespace csecg::dsp
