// Integration tests: the whole stack — synthetic database -> mote encoder
// -> wire -> coordinator decoder -> metrics — exercised together, checking
// the paper-level invariants that no single module owns.

#include <gtest/gtest.h>

#include <cmath>

#include "csecg/core/codebook.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/core/rip.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/platform/cortex_a8.hpp"
#include "csecg/platform/msp430.hpp"
#include "csecg/solvers/fista.hpp"
#include "csecg/wbsn/pipeline.hpp"

namespace csecg {
namespace {

const ecg::SyntheticDatabase& shared_db() {
  static const ecg::SyntheticDatabase db([] {
    ecg::DatabaseConfig config;
    config.record_count = 4;
    config.duration_s = 20.0;
    return config;
  }());
  return db;
}

const coding::HuffmanCodebook& shared_codebook() {
  static const coding::HuffmanCodebook book =
      core::train_difference_codebook(shared_db(), core::EncoderConfig{});
  return book;
}

TEST(IntegrationTest, QualityImprovesWithMoreMeasurements) {
  // Monotone trend across the CR sweep (Fig 6's defining shape).
  const auto& db = shared_db();
  double previous_prd = 0.0;
  for (const double cr : {30.0, 50.0, 70.0, 85.0}) {
    core::DecoderConfig config;
    config.cs.measurements = core::measurements_for_cr(512, cr);
    config.max_iterations = 1200;
    core::CsEcgCodec codec(config, shared_codebook());
    const auto report = codec.run_record<double>(db.mote(0));
    EXPECT_GT(report.mean_prd, previous_prd)
        << "PRD must grow with CR (cr=" << cr << ")";
    previous_prd = report.mean_prd;
  }
}

TEST(IntegrationTest, FloatAndDoubleReconstructionAgree) {
  // Fig 6's headline: the 32-bit iPhone implementation matches the 64-bit
  // reference.
  const auto& db = shared_db();
  core::DecoderConfig config;
  core::CsEcgCodec codec_f(config, shared_codebook());
  core::CsEcgCodec codec_d(config, shared_codebook());
  for (std::size_t r = 0; r < 2; ++r) {
    const auto rf = codec_f.run_record<float>(db.mote(r));
    const auto rd = codec_d.run_record<double>(db.mote(r));
    EXPECT_NEAR(rf.mean_prd, rd.mean_prd, 0.05 * rd.mean_prd + 0.1)
        << db.mote(r).id;
  }
}

TEST(IntegrationTest, ScalarAndVectorisedDecodersAgreeNumerically) {
  // Vectorising the kernels must not change results, only speed: the
  // plain reference loops against the host's wide-SIMD kernels.
  const auto& db = shared_db();
  core::DecoderConfig scalar_config;
  scalar_config.backend = &linalg::reference_backend();
  core::DecoderConfig simd_config;
  simd_config.backend = &linalg::native_backend();
  core::CsEcgCodec scalar_codec(scalar_config, shared_codebook());
  core::CsEcgCodec simd_codec(simd_config, shared_codebook());
  const auto rs = scalar_codec.run_record<float>(db.mote(1));
  const auto rv = simd_codec.run_record<float>(db.mote(1));
  EXPECT_NEAR(rs.mean_prd, rv.mean_prd, 0.02 * rs.mean_prd + 0.05);
  EXPECT_EQ(rs.compressed_bits, rv.compressed_bits);
}

TEST(IntegrationTest, SparseSensingTracksGaussianQuality) {
  // Fig 2: no meaningful SNR gap between sparse binary sensing (d = 12)
  // and Gaussian sensing at the same CR. The Gaussian path runs in double
  // ("on Matlab") directly on the measurement model, bypassing the
  // integer encoder, exactly as the paper did.
  const auto& db = shared_db();
  const auto& record = db.mote(0);
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);

  const auto mean_prd_for = [&](core::SensingMatrixType type) {
    core::SensingMatrixConfig sc;
    sc.type = type;
    sc.rows = 256;
    sc.cols = 512;
    sc.d = 12;
    core::SensingMatrix phi(sc);
    core::CsOperator<double> op(phi, psi);
    const double lipschitz =
        2.0 * linalg::estimate_spectral_norm_squared(op);
    double total = 0.0;
    int windows = 0;
    for (std::size_t off = 0; off + 512 <= record.samples.size();
         off += 512) {
      std::vector<double> x(512);
      for (std::size_t i = 0; i < 512; ++i) {
        x[i] = static_cast<double>(record.samples[off + i]);
      }
      std::vector<double> y(256);
      phi.apply(std::span<const double>(x), std::span<double>(y));
      std::vector<double> aty(512);
      op.apply_adjoint(std::span<const double>(y), std::span<double>(aty));
      solvers::ShrinkageOptions options;
      options.lambda =
          0.01 * linalg::norm_inf(std::span<const double>(aty));
      options.max_iterations = 1200;
      options.tolerance = 1e-5;
      options.lipschitz = lipschitz;
      const auto result = solvers::fista<double>(op, y, options);
      std::vector<double> xhat(512);
      psi.inverse<double>(std::span<const double>(result.solution),
                          std::span<double>(xhat));
      total += ecg::prd(x, xhat);
      ++windows;
    }
    return total / windows;
  };

  const double sparse_prd =
      mean_prd_for(core::SensingMatrixType::kSparseBinary);
  const double gaussian_prd =
      mean_prd_for(core::SensingMatrixType::kGaussian);
  // "no meaningful performance difference": the curves of Fig 2 overlap
  // to within a couple of dB of output SNR (per-record noise leaves a
  // somewhat wider corridor than the corpus average the figure plots).
  const double snr_gap = std::fabs(ecg::snr_from_prd(sparse_prd) -
                                   ecg::snr_from_prd(gaussian_prd));
  EXPECT_LT(snr_gap, 3.0) << "sparse " << sparse_prd << " vs gaussian "
                          << gaussian_prd;
}

TEST(IntegrationTest, IterationCountGrowsWithCompression) {
  // Fig 7's shape: higher CR -> harder recovery -> more FISTA iterations.
  const auto& db = shared_db();
  double previous = 0.0;
  for (const double cr : {30.0, 50.0, 70.0}) {
    core::DecoderConfig config;
    config.cs.measurements = core::measurements_for_cr(512, cr);
    core::CsEcgCodec codec(config, shared_codebook());
    const auto report = codec.run_record<double>(db.mote(2));
    EXPECT_GT(report.mean_iterations, previous);
    previous = report.mean_iterations;
  }
}

TEST(IntegrationTest, EntropyStagePaysForItself) {
  // Measured wire CR must track the nominal CS ratio 1 - M/N: the
  // difference + Huffman stages cover the packet headers and keyframes
  // (and beat nominal on the corpus average).
  const auto& db = shared_db();
  core::DecoderConfig config;  // M = 256 -> nominal 50 %
  core::CsEcgCodec codec(config, shared_codebook());
  double mean_cr = 0.0;
  for (std::size_t r = 0; r < db.size(); ++r) {
    const auto report = codec.run_record<double>(db.mote(r));
    EXPECT_GT(report.cr, 47.0) << db.mote(r).id;  // never far below nominal
    mean_cr += report.cr;
  }
  mean_cr /= static_cast<double>(db.size());
  EXPECT_GT(mean_cr, 50.0);
}

TEST(IntegrationTest, WholeCorpusRoundTripsLosslesslyAtTheWireLevel) {
  // The lossy step is CS itself; everything after the projection must be
  // bit-exact for every record of the corpus.
  const auto& db = shared_db();
  core::DecoderConfig config;
  core::Encoder encoder(config.cs, shared_codebook());
  core::Decoder decoder(config, shared_codebook());
  for (std::size_t r = 0; r < db.size(); ++r) {
    encoder.reset();
    decoder.reset();
    const auto& record = db.mote(r);
    for (std::size_t off = 0; off + 512 <= record.samples.size();
         off += 512) {
      const auto packet = encoder.encode_window(
          std::span<const std::int16_t>(record.samples.data() + off, 512));
      const auto wire = core::Packet::parse(packet.serialize());
      ASSERT_TRUE(wire.has_value());
      const auto y = decoder.decode_measurements(*wire);
      ASSERT_TRUE(y.has_value());
      const auto sent = encoder.last_measurements();
      for (std::size_t i = 0; i < sent.size(); ++i) {
        ASSERT_EQ((*y)[i], sent[i]);
      }
    }
  }
}

TEST(IntegrationTest, PaperHeadlineNumbersHold) {
  // One consolidated check of §V's claims under the platform models.
  const auto& db = shared_db();
  core::DecoderConfig config;  // CR 50 operating point
  wbsn::RealTimePipeline pipeline(config, shared_codebook());
  const auto report = pipeline.run(db.mote(0));

  // Node: < 5 % CPU (§V).
  EXPECT_LT(report.node_cpu_usage, 0.05);
  // Coordinator: < 30 % CPU (§V; 17.7 % average at CR = 50).
  EXPECT_LT(report.coordinator_cpu_usage, 0.30);
  // Real-time budget: decode spends at most ~1 s per 2 s packet.
  const double decode_per_packet =
      report.coordinator.modelled_seconds_total /
      static_cast<double>(report.coordinator.windows_reconstructed);
  EXPECT_LT(decode_per_packet, 1.0);
  // The host actually keeps real time too (sanity on this machine).
  EXPECT_LT(report.wall_seconds,
            2.0 * static_cast<double>(report.windows_input));
}

TEST(IntegrationTest, RipHoldsForTheShippedOperator) {
  core::SensingMatrix phi(core::SensingMatrixConfig{});
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  core::CsOperator<double> op(phi, psi);
  util::Rng rng(2011);
  const auto estimate = core::estimate_rip(op, 24, 100, rng);
  // Recovery-friendly spread (empirical RIP-p surrogate).
  EXPECT_GT(estimate.min_ratio, 0.3);
  EXPECT_LT(estimate.max_ratio, 1.8);
}

TEST(IntegrationTest, DifferentWaveletsAllReconstruct) {
  const auto& db = shared_db();
  for (const char* wavelet : {"haar", "db4", "db6", "sym8"}) {
    core::DecoderConfig config;
    config.wavelet = wavelet;
    config.max_iterations = 800;
    core::CsEcgCodec codec(config, shared_codebook());
    const auto report = codec.run_record<double>(db.mote(0));
    EXPECT_LT(report.mean_prd, 60.0) << wavelet;
  }
}

}  // namespace
}  // namespace csecg
