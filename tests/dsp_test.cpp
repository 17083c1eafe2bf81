// Unit tests for csecg::dsp — wavelet construction, the periodic DWT
// (perfect reconstruction, orthonormality, adjointness), FIR design and
// the rational resampler.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "csecg/dsp/dwt.hpp"
#include "csecg/dsp/fir.hpp"
#include "csecg/dsp/resampler.hpp"
#include "csecg/dsp/wavelet.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::dsp {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) {
    v = rng.gaussian();
  }
  return x;
}

// -------------------------------------------------------------- wavelet --

TEST(WaveletTest, HaarIsExact) {
  const auto w = Wavelet::make(WaveletFamily::kHaar, 1);
  ASSERT_EQ(w.length(), 2u);
  const double s = 1.0 / std::numbers::sqrt2;
  EXPECT_NEAR(w.analysis_lowpass()[0], s, 1e-15);
  EXPECT_NEAR(w.analysis_lowpass()[1], s, 1e-15);
  EXPECT_NEAR(w.analysis_highpass()[0], s, 1e-15);
  EXPECT_NEAR(w.analysis_highpass()[1], -s, 1e-15);
}

TEST(WaveletTest, Db2MatchesClosedForm) {
  // D4 coefficients: (1 ± sqrt3) / (4 sqrt2) family.
  const auto w = Wavelet::make(WaveletFamily::kDaubechies, 2);
  const double s3 = std::sqrt(3.0);
  const double denom = 4.0 * std::numbers::sqrt2;
  const std::vector<double> expected{(1 + s3) / denom, (3 + s3) / denom,
                                     (3 - s3) / denom, (1 - s3) / denom};
  ASSERT_EQ(w.length(), 4u);
  // The factorisation can produce the time-reversed twin; both are valid
  // extremal-phase D4 up to reflection — accept either orientation.
  const auto& h = w.analysis_lowpass();
  const bool forward = std::fabs(h[0] - expected[0]) < 1e-10;
  for (std::size_t k = 0; k < 4; ++k) {
    const double want = forward ? expected[k] : expected[3 - k];
    EXPECT_NEAR(h[k], want, 1e-10);
  }
}

class WaveletFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WaveletFamilyTest, FilterSumsToSqrt2) {
  const auto w = Wavelet::from_name(GetParam());
  double sum = 0.0;
  for (const auto v : w.analysis_lowpass()) {
    sum += v;
  }
  EXPECT_NEAR(sum, std::numbers::sqrt2, 1e-9);
}

TEST_P(WaveletFamilyTest, EvenShiftsAreOrthonormal) {
  const auto w = Wavelet::from_name(GetParam());
  const auto& h = w.analysis_lowpass();
  for (std::size_t m = 0; m < h.size() / 2; ++m) {
    double acc = 0.0;
    for (std::size_t k = 0; k + 2 * m < h.size(); ++k) {
      acc += h[k] * h[k + 2 * m];
    }
    EXPECT_NEAR(acc, m == 0 ? 1.0 : 0.0, 1e-9)
        << GetParam() << " shift " << m;
  }
}

TEST_P(WaveletFamilyTest, HighpassIsQuadratureMirror) {
  const auto w = Wavelet::from_name(GetParam());
  const auto& h = w.analysis_lowpass();
  const auto& g = w.analysis_highpass();
  const std::size_t L = h.size();
  for (std::size_t k = 0; k < L; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    EXPECT_NEAR(g[k], sign * h[L - 1 - k], 1e-12);
  }
  // High-pass kills DC (one vanishing moment at minimum).
  double sum = 0.0;
  for (const auto v : g) {
    sum += v;
  }
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST_P(WaveletFamilyTest, CrossFilterOrthogonality) {
  const auto w = Wavelet::from_name(GetParam());
  const auto& h = w.analysis_lowpass();
  const auto& g = w.analysis_highpass();
  for (std::size_t m = 0; m < h.size() / 2; ++m) {
    double acc = 0.0;
    for (std::size_t k = 0; k + 2 * m < h.size(); ++k) {
      acc += h[k + 2 * m] * g[k];
    }
    double acc2 = 0.0;
    for (std::size_t k = 0; k + 2 * m < h.size(); ++k) {
      acc2 += h[k] * g[k + 2 * m];
    }
    EXPECT_NEAR(acc, 0.0, 1e-9);
    EXPECT_NEAR(acc2, 0.0, 1e-9);
  }
}

TEST_P(WaveletFamilyTest, RoundTripNames) {
  const auto w = Wavelet::from_name(GetParam());
  EXPECT_EQ(w.name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WaveletFamilyTest,
                         ::testing::Values("haar", "db2", "db3", "db4",
                                           "db5", "db6", "db7", "db8",
                                           "db9", "db10", "sym4", "sym5",
                                           "sym6", "sym7", "sym8"));

TEST(WaveletTest, VanishingMomentsKillPolynomials) {
  // dbp's high-pass filter annihilates polynomials of degree < p.
  const auto w = Wavelet::make(WaveletFamily::kDaubechies, 4);
  const auto& g = w.analysis_highpass();
  for (int degree = 0; degree < 4; ++degree) {
    double acc = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      acc += g[k] * std::pow(static_cast<double>(k), degree);
    }
    EXPECT_NEAR(acc, 0.0, 1e-7) << "degree " << degree;
  }
}

TEST(WaveletTest, SymletIsMoreLinearPhaseThanDaubechies) {
  // The defining property of the Symlet selection for higher orders.
  // (Compare group-delay spread via the centroid second moment.)
  const auto spread = [](const Wavelet& w) {
    const auto& h = w.analysis_lowpass();
    double e = 0.0;
    double c = 0.0;
    for (std::size_t k = 0; k < h.size(); ++k) {
      e += h[k] * h[k];
      c += k * h[k] * h[k];
    }
    c /= e;
    double second = 0.0;
    for (std::size_t k = 0; k < h.size(); ++k) {
      second += (k - c) * (k - c) * h[k] * h[k];
    }
    return second / e;
  };
  const auto db8 = Wavelet::make(WaveletFamily::kDaubechies, 8);
  const auto sym8 = Wavelet::make(WaveletFamily::kSymlet, 8);
  EXPECT_LT(spread(sym8), spread(db8));
}

TEST(WaveletTest, RejectsBadNamesAndOrders) {
  EXPECT_THROW(Wavelet::from_name("unknown"), Error);
  EXPECT_THROW(Wavelet::from_name("db"), Error);
  EXPECT_THROW(Wavelet::from_name("db0"), Error);
  EXPECT_THROW(Wavelet::from_name("db11"), Error);
  EXPECT_THROW(Wavelet::from_name("sym4x"), Error);
}

TEST(RootFinderTest, FindsKnownRoots) {
  // (z - 1)(z - 2)(z + 3) = z^3 - 7z + 6
  const auto roots = detail::find_roots({6.0, -7.0, 0.0, 1.0});
  ASSERT_EQ(roots.size(), 3u);
  std::vector<double> re;
  for (const auto& r : roots) {
    EXPECT_NEAR(r.im, 0.0, 1e-9);
    re.push_back(r.re);
  }
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -3.0, 1e-9);
  EXPECT_NEAR(re[1], 1.0, 1e-9);
  EXPECT_NEAR(re[2], 2.0, 1e-9);
}

// ------------------------------------------------------------------ dwt --

struct DwtCase {
  std::string wavelet;
  std::size_t length;
  int levels;
};

class DwtRoundTripTest : public ::testing::TestWithParam<DwtCase> {};

TEST_P(DwtRoundTripTest, PerfectReconstructionDouble) {
  const auto& param = GetParam();
  WaveletTransform wt(Wavelet::from_name(param.wavelet), param.length,
                      param.levels);
  const auto x = random_signal(param.length, 99);
  std::vector<double> coeffs(param.length);
  std::vector<double> back(param.length);
  wt.forward<double>(x, coeffs);
  wt.inverse<double>(coeffs, back);
  for (std::size_t i = 0; i < param.length; ++i) {
    ASSERT_NEAR(back[i], x[i], 1e-9) << param.wavelet;
  }
}

TEST_P(DwtRoundTripTest, PerfectReconstructionFloatBothModes) {
  const auto& param = GetParam();
  WaveletTransform wt(Wavelet::from_name(param.wavelet), param.length,
                      param.levels);
  std::vector<float> x(param.length);
  util::Rng rng(100);
  for (auto& v : x) {
    v = static_cast<float>(rng.gaussian());
  }
  for (const linalg::Backend* be :
       {&linalg::reference_backend(), &linalg::native_backend()}) {
    std::vector<float> coeffs(param.length);
    std::vector<float> back(param.length);
    wt.forward<float>(x, coeffs, *be);
    wt.inverse<float>(coeffs, back, *be);
    for (std::size_t i = 0; i < param.length; ++i) {
      ASSERT_NEAR(back[i], x[i], 1e-4f) << param.wavelet << " " << be->name();
    }
  }
}

TEST_P(DwtRoundTripTest, EnergyIsPreserved) {
  // Parseval: orthonormal transform preserves the l2 norm.
  const auto& param = GetParam();
  WaveletTransform wt(Wavelet::from_name(param.wavelet), param.length,
                      param.levels);
  const auto x = random_signal(param.length, 101);
  std::vector<double> coeffs(param.length);
  wt.forward<double>(x, coeffs);
  EXPECT_NEAR(linalg::norm2<double>(coeffs), linalg::norm2<double>(x),
              1e-9);
}

TEST_P(DwtRoundTripTest, ForwardInverseAreAdjoint) {
  // <Wx, y> == <x, W^T y> — the property FISTA's gradient relies on.
  const auto& param = GetParam();
  WaveletTransform wt(Wavelet::from_name(param.wavelet), param.length,
                      param.levels);
  const auto x = random_signal(param.length, 102);
  const auto y = random_signal(param.length, 103);
  std::vector<double> wx(param.length);
  std::vector<double> wty(param.length);
  wt.forward<double>(x, wx);
  wt.inverse<double>(y, wty);
  EXPECT_NEAR(linalg::dot<double>(wx, y), linalg::dot<double>(x, wty),
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DwtRoundTripTest,
    ::testing::Values(DwtCase{"haar", 64, 3}, DwtCase{"db2", 64, 4},
                      DwtCase{"db4", 512, 5}, DwtCase{"db4", 512, 1},
                      DwtCase{"db6", 256, 4}, DwtCase{"db10", 128, 2},
                      DwtCase{"sym4", 512, 5}, DwtCase{"sym8", 256, 3},
                      DwtCase{"db4", 32, 5}, DwtCase{"db8", 64, 2}));

TEST(DwtTest, LayoutDescribesSubbands) {
  WaveletTransform wt(Wavelet::from_name("db4"), 512, 5);
  const auto layout = wt.layout();
  EXPECT_EQ(layout.approx_offset, 0u);
  EXPECT_EQ(layout.approx_size, 16u);
  ASSERT_EQ(layout.detail_sizes.size(), 5u);
  EXPECT_EQ(layout.detail_sizes[0], 16u);   // coarsest
  EXPECT_EQ(layout.detail_sizes[4], 256u);  // finest
  EXPECT_EQ(layout.detail_offsets[0], 16u);
  EXPECT_EQ(layout.detail_offsets[4], 256u);
  std::size_t total = layout.approx_size;
  for (const auto s : layout.detail_sizes) {
    total += s;
  }
  EXPECT_EQ(total, 512u);
}

TEST(DwtTest, ConstantSignalConcentratesInApprox) {
  WaveletTransform wt(Wavelet::from_name("db4"), 256, 4);
  std::vector<double> x(256, 1.0);
  std::vector<double> coeffs(256);
  wt.forward<double>(x, coeffs);
  const auto layout = wt.layout();
  // All detail coefficients vanish for a constant (vanishing moments).
  for (std::size_t i = layout.approx_size; i < 256; ++i) {
    EXPECT_NEAR(coeffs[i], 0.0, 1e-9);
  }
  // Energy sits in the approximation band.
  double approx_energy = 0.0;
  for (std::size_t i = 0; i < layout.approx_size; ++i) {
    approx_energy += coeffs[i] * coeffs[i];
  }
  EXPECT_NEAR(approx_energy, 256.0, 1e-9);
}

TEST(DwtTest, EcgLikeSignalIsSparse) {
  // The premise of the paper: a spiky quasi-periodic signal compresses to
  // few significant wavelet coefficients.
  WaveletTransform wt(Wavelet::from_name("db4"), 512, 5);
  std::vector<double> x(512, 0.0);
  for (int beat = 0; beat < 3; ++beat) {
    const int centre = 80 + beat * 170;
    for (int i = -6; i <= 6; ++i) {
      x[centre + i] = std::exp(-0.3 * i * i);  // narrow QRS-like spike
    }
  }
  std::vector<double> coeffs(512);
  wt.forward<double>(x, coeffs);
  // 95% of the energy within the largest 10% of coefficients.
  std::vector<double> mags(512);
  double total = 0.0;
  for (std::size_t i = 0; i < 512; ++i) {
    mags[i] = coeffs[i] * coeffs[i];
    total += mags[i];
  }
  std::sort(mags.rbegin(), mags.rend());
  double top = 0.0;
  for (std::size_t i = 0; i < 51; ++i) {
    top += mags[i];
  }
  EXPECT_GT(top / total, 0.95);
}

TEST(DwtTest, RejectsBadConfigurations) {
  const auto w = Wavelet::from_name("db4");
  EXPECT_THROW(WaveletTransform(w, 100, 3), Error);  // not divisible by 8
  EXPECT_THROW(WaveletTransform(w, 64, 0), Error);
  WaveletTransform wt(w, 64, 2);
  std::vector<double> x(63);
  std::vector<double> c(64);
  EXPECT_THROW(wt.forward<double>(x, c), Error);
}

TEST(DwtTest, FloatMatchesDoubleClosely) {
  WaveletTransform wt(Wavelet::from_name("db4"), 512, 5);
  const auto xd = random_signal(512, 104);
  std::vector<float> xf(xd.begin(), xd.end());
  std::vector<double> cd(512);
  std::vector<float> cf(512);
  wt.forward<double>(xd, cd);
  wt.forward<float>(xf, cf, linalg::native_backend());
  for (std::size_t i = 0; i < 512; ++i) {
    ASSERT_NEAR(static_cast<float>(cd[i]), cf[i], 2e-4f);
  }
}

// ------------------------------------------------------------------ fir --

TEST(FirTest, UnityDcGain) {
  const auto h = design_lowpass(0.2, 31);
  double sum = 0.0;
  for (const auto v : h) {
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirTest, LinearPhaseSymmetry) {
  const auto h = design_lowpass(0.15, 41);
  for (std::size_t k = 0; k < h.size() / 2; ++k) {
    EXPECT_NEAR(h[k], h[h.size() - 1 - k], 1e-12);
  }
}

TEST(FirTest, PassesLowFrequencyAttenuatesHigh) {
  const auto h = design_lowpass(0.1, 101);
  const auto response = [&](double f) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t k = 0; k < h.size(); ++k) {
      re += h[k] * std::cos(2.0 * std::numbers::pi * f * k);
      im += h[k] * std::sin(2.0 * std::numbers::pi * f * k);
    }
    return std::sqrt(re * re + im * im);
  };
  EXPECT_NEAR(response(0.01), 1.0, 0.02);
  EXPECT_LT(response(0.25), 1e-3);
}

TEST(FirTest, FilterSameCompensatesDelay) {
  const auto h = design_lowpass(0.2, 21);
  std::vector<double> x(64, 0.0);
  x[32] = 1.0;  // impulse
  const auto y = filter_same(x, h);
  ASSERT_EQ(y.size(), x.size());
  // Peak of the impulse response should stay at the impulse position.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[argmax]) {
      argmax = i;
    }
  }
  EXPECT_EQ(argmax, 32u);
}

TEST(FirTest, RejectsBadParameters) {
  EXPECT_THROW(design_lowpass(0.0, 11), Error);
  EXPECT_THROW(design_lowpass(0.5, 11), Error);
  EXPECT_THROW(design_lowpass(0.2, 10), Error);  // even taps
  EXPECT_THROW(design_lowpass(0.2, 1), Error);
}

// ------------------------------------------------------------ resampler --

TEST(ResamplerTest, IdentityWhenRatesMatch) {
  const auto x = random_signal(100, 105);
  const auto y = resample(x, 256, 256);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], x[i]);
  }
}

TEST(ResamplerTest, OutputLength360To256) {
  std::vector<double> x(3600, 0.0);  // 10 s at 360 Hz
  const auto y = resample(x, 360, 256);
  EXPECT_EQ(y.size(), 2560u);  // 10 s at 256 Hz
}

TEST(ResamplerTest, RatioIsReduced) {
  RationalResampler r(256, 360);
  EXPECT_EQ(r.up(), 32u);
  EXPECT_EQ(r.down(), 45u);
}

TEST(ResamplerTest, PreservesInBandSinusoid) {
  // A 10 Hz tone sampled at 360 Hz must come out as a 10 Hz tone at
  // 256 Hz with the same amplitude and phase (after settling).
  constexpr double kTone = 10.0;
  std::vector<double> x(3600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * kTone * i / 360.0);
  }
  const auto y = resample(x, 360, 256);
  double worst = 0.0;
  for (std::size_t i = 200; i + 200 < y.size(); ++i) {
    const double expected =
        std::sin(2.0 * std::numbers::pi * kTone * i / 256.0);
    worst = std::max(worst, std::fabs(y[i] - expected));
  }
  EXPECT_LT(worst, 0.02);
}

TEST(ResamplerTest, UpsamplingPreservesToneToo) {
  constexpr double kTone = 5.0;
  std::vector<double> x(1280);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * kTone * i / 256.0);
  }
  const auto y = resample(x, 256, 360);
  EXPECT_EQ(y.size(), 1800u);
  double worst = 0.0;
  for (std::size_t i = 300; i + 300 < y.size(); ++i) {
    const double expected =
        std::cos(2.0 * std::numbers::pi * kTone * i / 360.0);
    worst = std::max(worst, std::fabs(y[i] - expected));
  }
  EXPECT_LT(worst, 0.02);
}

TEST(ResamplerTest, EmptyInput) {
  RationalResampler r(32, 45);
  EXPECT_TRUE(r.process({}).empty());
}

}  // namespace
}  // namespace csecg::dsp
