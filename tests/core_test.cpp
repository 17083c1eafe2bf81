// Unit tests for csecg::core — the mote PRNG, sensing matrices, RIP
// diagnostics, redundancy removal, packets, encoder/decoder round trips
// and the codec layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "csecg/core/codebook.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/core/cs_operator.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/mote_rng.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/core/residual.hpp"
#include "csecg/core/rip.hpp"
#include "csecg/core/sensing_matrix.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::core {
namespace {

ecg::SyntheticDatabase small_db() {
  ecg::DatabaseConfig config;
  config.record_count = 2;
  config.duration_s = 16.0;
  return ecg::SyntheticDatabase(config);
}

// ------------------------------------------------------------- mote rng --

TEST(MoteRngTest, Deterministic) {
  Xorshift16 a(42);
  Xorshift16 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(MoteRngTest, ZeroSeedIsFixedUp) {
  Xorshift16 prng(0);
  EXPECT_NE(prng.next(), 0);  // state never sticks at zero
}

TEST(MoteRngTest, FullPeriodCoverage) {
  // xorshift16 with these taps has period 2^16 - 1 over non-zero states.
  Xorshift16 prng(1);
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 65535; ++i) {
    seen.insert(prng.next());
  }
  EXPECT_EQ(seen.size(), 65535u);
}

TEST(MoteRngTest, MapToRangeBounds) {
  for (const std::uint16_t m : {1, 2, 51, 256, 358}) {
    Xorshift16 prng(7);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT(map_to_range(prng.next(), m), m);
    }
  }
}

TEST(MoteRngTest, MapToRangeRoughlyUniform) {
  constexpr std::uint16_t kM = 16;
  std::array<int, kM> histogram{};
  Xorshift16 prng(9);
  constexpr int kDraws = 64000;
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[map_to_range(prng.next(), kM)];
  }
  for (const auto c : histogram) {
    EXPECT_NEAR(c, kDraws / kM, kDraws / kM / 5);
  }
}

TEST(MoteRngTest, ColumnIndicesDistinct) {
  Xorshift16 prng(11);
  std::uint16_t out[12];
  for (int col = 0; col < 200; ++col) {
    generate_column_indices(prng, 256, 12, out);
    std::set<std::uint16_t> unique(out, out + 12);
    ASSERT_EQ(unique.size(), 12u);
    for (const auto r : unique) {
      ASSERT_LT(r, 256);
    }
  }
}

TEST(MoteRngTest, ChargesMsp430Ops) {
  fixedpoint::Msp430CounterScope scope;
  Xorshift16 prng(13);
  std::uint16_t out[12];
  generate_column_indices(prng, 256, 12, out);
  EXPECT_GE(scope.counts().mul16, 12u);   // one range map per draw
  EXPECT_GE(scope.counts().shift, 12u * 24u);
}

TEST(MoteRngTest, TableMatchesStreamingGeneration) {
  // The coordinator's materialised table must be exactly the index sets
  // the mote regenerates (order within a column may differ: sorted).
  const auto table = generate_sparse_indices(256, 512, 12, 42);
  Xorshift16 prng(42);
  std::uint16_t out[12];
  for (std::size_t c = 0; c < 512; ++c) {
    generate_column_indices(prng, 256, 12, out);
    std::set<std::uint16_t> streamed(out, out + 12);
    std::set<std::uint16_t> stored(table.begin() + c * 12,
                                   table.begin() + (c + 1) * 12);
    ASSERT_EQ(streamed, stored) << "column " << c;
  }
}

// ------------------------------------------------------- sensing matrix --

TEST(SensingMatrixTest, SparseBinaryDefaults) {
  SensingMatrix phi(SensingMatrixConfig{});
  EXPECT_TRUE(phi.is_sparse());
  EXPECT_EQ(phi.rows(), 256u);
  EXPECT_EQ(phi.cols(), 512u);
  EXPECT_EQ(phi.sparse().nonzeros_per_column(), 12u);
}

TEST(SensingMatrixTest, DeterministicInSeed) {
  SensingMatrixConfig config;
  SensingMatrix a(config);
  SensingMatrix b(config);
  std::vector<double> x(512);
  for (std::size_t i = 0; i < 512; ++i) {
    x[i] = std::sin(0.1 * static_cast<double>(i));
  }
  std::vector<double> ya(256);
  std::vector<double> yb(256);
  a.apply(std::span<const double>(x), std::span<double>(ya));
  b.apply(std::span<const double>(x), std::span<double>(yb));
  EXPECT_EQ(ya, yb);
}

TEST(SensingMatrixTest, EqualGeometryAndSeedShareOnePhi) {
  // Phi is a pure function of (rows, cols, d, 16-bit seed): matrices that
  // agree on those hold one immutable instance, others get their own.
  SensingMatrixConfig config;
  const SensingMatrix a(config);
  const SensingMatrix b(config);
  EXPECT_EQ(&a.sparse(), &b.sparse());

  SensingMatrixConfig high_bits = config;
  high_bits.seed = config.seed + 65536;  // same 16-bit seed
  EXPECT_EQ(&SensingMatrix(high_bits).sparse(), &a.sparse());

  SensingMatrixConfig other_seed = config;
  other_seed.seed = config.seed + 1;
  SensingMatrixConfig other_rows = config;
  other_rows.rows = 154;
  SensingMatrixConfig other_d = config;
  other_d.d = 8;
  for (const auto& other : {other_seed, other_rows, other_d}) {
    const SensingMatrix c(other);
    EXPECT_NE(&c.sparse(), &a.sparse());
  }

  // Decoders of one profile share it too.
  DecoderConfig decoder_config;
  const auto book = default_difference_codebook();
  const Decoder d1(decoder_config, book);
  const Decoder d2(decoder_config, book);
  EXPECT_EQ(&d1.sensing().sparse(), &d2.sensing().sparse());
}

TEST(SensingMatrixTest, FloatAndDoublePathsAgree) {
  for (const auto type :
       {SensingMatrixType::kGaussian, SensingMatrixType::kBernoulli,
        SensingMatrixType::kSparseBinary}) {
    SensingMatrixConfig config;
    config.type = type;
    config.rows = 32;
    config.cols = 64;
    config.d = 6;
    SensingMatrix phi(config);
    util::Rng rng(1);
    std::vector<double> xd(64);
    std::vector<float> xf(64);
    for (std::size_t i = 0; i < 64; ++i) {
      xd[i] = rng.gaussian();
      xf[i] = static_cast<float>(xd[i]);
    }
    std::vector<double> yd(32);
    std::vector<float> yf(32);
    phi.apply(std::span<const double>(xd), std::span<double>(yd));
    phi.apply(std::span<const float>(xf), std::span<float>(yf));
    for (std::size_t r = 0; r < 32; ++r) {
      ASSERT_NEAR(yd[r], static_cast<double>(yf[r]), 1e-4)
          << to_string(type);
    }
  }
}

TEST(SensingMatrixTest, DenseTransposeIsAdjoint) {
  SensingMatrixConfig config;
  config.type = SensingMatrixType::kGaussian;
  config.rows = 24;
  config.cols = 48;
  SensingMatrix phi(config);
  util::Rng rng(2);
  std::vector<double> x(48);
  std::vector<double> u(24);
  for (auto& v : x) {
    v = rng.gaussian();
  }
  for (auto& v : u) {
    v = rng.gaussian();
  }
  std::vector<double> px(24);
  std::vector<double> ptu(48);
  phi.apply(std::span<const double>(x), std::span<double>(px));
  phi.apply_transpose(std::span<const double>(u), std::span<double>(ptu));
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < 24; ++i) {
    lhs += px[i] * u[i];
  }
  for (std::size_t i = 0; i < 48; ++i) {
    rhs += x[i] * ptu[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(SensingMatrixTest, SparseAccessorThrowsForDense) {
  SensingMatrixConfig config;
  config.type = SensingMatrixType::kBernoulli;
  SensingMatrix phi(config);
  EXPECT_FALSE(phi.is_sparse());
  EXPECT_THROW(phi.sparse(), Error);
}

TEST(SensingMatrixTest, RequiresUndersampling) {
  SensingMatrixConfig config;
  config.rows = 600;
  config.cols = 512;
  EXPECT_THROW(SensingMatrix{config}, Error);
}

TEST(SensingMatrixTest, TypeNames) {
  EXPECT_EQ(to_string(SensingMatrixType::kGaussian), "gaussian");
  EXPECT_EQ(to_string(SensingMatrixType::kBernoulli), "bernoulli");
  EXPECT_EQ(to_string(SensingMatrixType::kSparseBinary), "sparse-binary");
}

// ------------------------------------------------------------------ rip --

TEST(RipTest, GaussianOperatorIsNearIsometry) {
  SensingMatrixConfig config;
  config.type = SensingMatrixType::kGaussian;
  config.rows = 256;
  config.cols = 512;
  SensingMatrix phi(config);
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  CsOperator<double> op(phi, psi);
  util::Rng rng(3);
  const auto estimate = estimate_rip(op, 20, 200, rng);
  // With the paper's N(0, 1/N) entries (not unit columns), the ratios
  // concentrate around sqrt(M/N) = sqrt(0.5) ~= 0.707; near-isometry means
  // a tight spread around that level, not around 1.
  EXPECT_NEAR(estimate.mean_ratio, std::sqrt(0.5), 0.05);
  const double spread =
      (estimate.max_ratio - estimate.min_ratio) / estimate.mean_ratio;
  EXPECT_LT(spread, 0.5);
}

TEST(RipTest, SparseBinaryPreservesNormsLooselyButRecoverably) {
  SensingMatrixConfig config;
  SensingMatrix phi(config);  // sparse binary 256x512 d=12
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  CsOperator<double> op(phi, psi);
  util::Rng rng(4);
  const auto estimate = estimate_rip(op, 20, 200, rng);
  // The l2 RIP constant is worse than Gaussian (RIP-p regime) but the
  // ratios stay bounded away from zero and infinity.
  EXPECT_GT(estimate.min_ratio, 0.3);
  EXPECT_LT(estimate.max_ratio, 2.0);
}

TEST(RipTest, RejectsBadArguments) {
  SensingMatrix phi(SensingMatrixConfig{});
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  CsOperator<double> op(phi, psi);
  util::Rng rng(5);
  EXPECT_THROW(estimate_rip(op, 0, 10, rng), Error);
  EXPECT_THROW(estimate_rip(op, 513, 10, rng), Error);
  EXPECT_THROW(estimate_rip(op, 10, 0, rng), Error);
}

// ------------------------------------------------------------ operator --

TEST(CsOperatorTest, DimensionsAndAdjointness) {
  SensingMatrix phi(SensingMatrixConfig{});
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  CsOperator<double> op(phi, psi);
  EXPECT_EQ(op.rows(), 256u);
  EXPECT_EQ(op.cols(), 512u);
  util::Rng rng(6);
  std::vector<double> alpha(512);
  std::vector<double> u(256);
  for (auto& v : alpha) {
    v = rng.gaussian();
  }
  for (auto& v : u) {
    v = rng.gaussian();
  }
  std::vector<double> a_alpha(256);
  std::vector<double> at_u(512);
  op.apply(std::span<const double>(alpha), std::span<double>(a_alpha));
  op.apply_adjoint(std::span<const double>(u), std::span<double>(at_u));
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    lhs += a_alpha[i] * u[i];
  }
  for (std::size_t i = 0; i < 512; ++i) {
    rhs += alpha[i] * at_u[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-8);
}

TEST(CsOperatorTest, MismatchedFrameLengthRejected) {
  SensingMatrix phi(SensingMatrixConfig{});
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 256, 4);
  EXPECT_THROW((CsOperator<double>(phi, psi)), Error);
}

// ------------------------------------------------------------- residual --

TEST(ResidualTest, SymbolMappingIsBijective) {
  for (int v = kDiffMin; v <= kDiffMax; ++v) {
    EXPECT_EQ(symbol_to_diff(diff_to_symbol(v)), v);
  }
  EXPECT_EQ(diff_to_symbol(kDiffMin), 0u);
  EXPECT_EQ(diff_to_symbol(kDiffMax), 511u);
}

TEST(ResidualTest, InRangeValuesAreSingleChunks) {
  for (const int v : {-255, -100, 0, 1, 254}) {
    const auto chunks = chunk_difference(v);
    ASSERT_EQ(chunks.size(), 1u) << v;
    EXPECT_EQ(chunks[0], v);
  }
}

TEST(ResidualTest, ExtremesGetExplicitTerminator) {
  // 255 and -256 are escape symbols, so genuine extreme values need a
  // trailing interior chunk.
  const auto pos = chunk_difference(255);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 255);
  EXPECT_EQ(pos[1], 0);
  const auto neg = chunk_difference(-256);
  ASSERT_EQ(neg.size(), 2u);
  EXPECT_EQ(neg[0], -256);
  EXPECT_EQ(neg[1], 0);
}

class ResidualChunkTest : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ResidualChunkTest, ChunksSumToValueAndTerminate) {
  const std::int32_t value = GetParam();
  const auto chunks = chunk_difference(value);
  ASSERT_FALSE(chunks.empty());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ASSERT_GE(chunks[i], kDiffMin);
    ASSERT_LE(chunks[i], kDiffMax);
    sum += chunks[i];
    const bool is_extreme = chunks[i] == kDiffMax || chunks[i] == kDiffMin;
    if (i + 1 == chunks.size()) {
      ASSERT_FALSE(is_extreme);  // terminator is always interior
    } else {
      ASSERT_TRUE(is_extreme);   // continuations are always extreme
    }
  }
  EXPECT_EQ(sum, value);
}

INSTANTIATE_TEST_SUITE_P(Values, ResidualChunkTest,
                         ::testing::Values(-100000, -5000, -512, -257, -256,
                                           -255, -1, 0, 1, 254, 255, 256,
                                           510, 511, 5000, 100000));

TEST(ResidualTest, EncodeDecodeRoundTrip) {
  util::Rng rng(7);
  auto book = default_difference_codebook();
  const std::size_t m = 128;
  std::vector<std::int32_t> previous(m);
  std::vector<std::int32_t> current(m);
  for (std::size_t i = 0; i < m; ++i) {
    previous[i] = static_cast<std::int32_t>(rng.uniform_int(-2000, 2000));
    // Mix of small deltas and outliers that need escape chunks.
    current[i] = previous[i] +
                 static_cast<std::int32_t>(
                     i % 17 == 0 ? rng.uniform_int(-3000, 3000)
                                 : rng.uniform_int(-200, 200));
  }
  coding::BitWriter writer;
  encode_difference(current, previous, book, writer);
  const auto bytes = writer.finish();
  coding::BitReader reader(bytes);
  std::vector<std::int32_t> decoded(m);
  ASSERT_TRUE(decode_difference(reader, book, previous, decoded));
  EXPECT_EQ(decoded, current);
}

TEST(ResidualTest, DecodeFailsOnTruncatedPayload) {
  auto book = default_difference_codebook();
  std::vector<std::int32_t> previous(64, 0);
  std::vector<std::int32_t> current(64, 3);
  coding::BitWriter writer;
  encode_difference(current, previous, book, writer);
  auto bytes = writer.finish();
  bytes.resize(bytes.size() / 2);  // truncate
  coding::BitReader reader(bytes);
  std::vector<std::int32_t> decoded(64);
  EXPECT_FALSE(decode_difference(reader, book, previous, decoded));
}

TEST(ResidualTest, HistogramMatchesChunkCount) {
  std::vector<std::int32_t> previous{0, 0, 0};
  std::vector<std::int32_t> current{5, 300, -256};
  std::vector<std::uint64_t> histogram(kDiffAlphabetSize, 0);
  accumulate_difference_histogram(current, previous, histogram);
  // 5 -> one chunk; 300 -> 255 + 45; -256 -> -256 + 0.
  EXPECT_EQ(histogram[diff_to_symbol(5)], 1u);
  EXPECT_EQ(histogram[diff_to_symbol(255)], 1u);
  EXPECT_EQ(histogram[diff_to_symbol(45)], 1u);
  EXPECT_EQ(histogram[diff_to_symbol(-256)], 1u);
  EXPECT_EQ(histogram[diff_to_symbol(0)], 1u);
  std::uint64_t total = 0;
  for (const auto h : histogram) {
    total += h;
  }
  EXPECT_EQ(total, 5u);
}

// --------------------------------------------------------------- packet --

TEST(PacketTest, SerializeParseRoundTrip) {
  Packet packet;
  packet.sequence = 0xBEEF;
  packet.kind = PacketKind::kAbsolute;
  packet.payload = {1, 2, 3, 250};
  const auto bytes = packet.serialize();
  EXPECT_EQ(bytes.size(), Packet::kHeaderBytes + 4 + Packet::kCrcBytes);
  EXPECT_EQ(packet.framed_bytes(), bytes.size());
  const auto parsed = Packet::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sequence, 0xBEEF);
  EXPECT_EQ(parsed->kind, PacketKind::kAbsolute);
  EXPECT_EQ(parsed->payload, packet.payload);
}

TEST(PacketTest, WireBitsCountsHeader) {
  Packet packet;
  packet.payload.assign(10, 0);
  EXPECT_EQ(packet.wire_bits(), (3u + 10u) * 8u);
}

TEST(PacketTest, ParseRejectsTruncatedFrames) {
  EXPECT_FALSE(Packet::parse(std::vector<std::uint8_t>{1, 2}).has_value());
  Packet packet;
  packet.payload = {9, 8, 7};
  auto bytes = packet.serialize();
  // Losing the CRC trailer (or part of it) must reject, not mis-parse the
  // payload tail as a checksum.
  bytes.pop_back();
  EXPECT_FALSE(Packet::parse(bytes).has_value());
  bytes.pop_back();
  EXPECT_FALSE(Packet::parse(bytes).has_value());
}

TEST(PacketTest, ParseRejectsUnknownKindEvenWithValidCrc) {
  // Hand-build a frame whose CRC is correct but whose kind byte is not a
  // PacketKind — the header check must still fire after the CRC check.
  std::vector<std::uint8_t> bytes{0, 0, 7, 1};
  const std::uint16_t crc = crc16_ccitt(bytes);
  bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
  bytes.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  EXPECT_FALSE(Packet::parse(bytes).has_value());
}

TEST(PacketTest, ParseRejectsAnySingleBitFlip) {
  Packet packet;
  packet.sequence = 0x0102;
  packet.kind = PacketKind::kDifferential;
  packet.payload = {0xAA, 0x55, 0x00, 0xFF};
  const auto clean = packet.serialize();
  ASSERT_TRUE(Packet::parse(clean).has_value());
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    auto corrupted = clean;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(Packet::parse(corrupted).has_value())
        << "bit flip at " << bit << " slipped through the CRC";
  }
}

TEST(PacketTest, Crc16MatchesKnownVector) {
  // CRC-16/CCITT-FALSE check value for the ASCII string "123456789".
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(check), 0x29B1);
}

// ------------------------------------------------------------- codebook --

TEST(CodebookTest, DefaultBookFavoursSmallDifferences) {
  const auto book = default_difference_codebook();
  EXPECT_EQ(book.size(), kDiffAlphabetSize);
  EXPECT_LT(book.code_length(diff_to_symbol(0)),
            book.code_length(diff_to_symbol(200)));
  EXPECT_LE(book.max_code_length(), coding::kMaxCodeLength);
}

TEST(CodebookTest, TrainedBookBeatsDefaultOnTrainingData) {
  const auto db = small_db();
  EncoderConfig config;
  const auto trained = train_difference_codebook(db, config);
  const auto fallback = default_difference_codebook();

  // Measure actual encoded size over the corpus with both books.
  const auto wire_bits = [&](const coding::HuffmanCodebook& book) {
    Encoder encoder(config, book);
    std::size_t bits = 0;
    for (std::size_t r = 0; r < db.size(); ++r) {
      encoder.reset();
      const auto& record = db.mote(r);
      for (std::size_t off = 0; off + config.window <= record.samples.size();
           off += config.window) {
        bits += encoder
                    .encode_window(std::span<const std::int16_t>(
                        record.samples.data() + off, config.window))
                    .wire_bits();
      }
    }
    return bits;
  };
  EXPECT_LT(wire_bits(trained), wire_bits(fallback));
}

TEST(CodebookTest, MeasurementsForCr) {
  EXPECT_EQ(measurements_for_cr(512, 50.0), 256u);
  EXPECT_EQ(measurements_for_cr(512, 75.0), 128u);
  EXPECT_THROW(measurements_for_cr(512, 0.0), Error);
  EXPECT_THROW(measurements_for_cr(512, 100.0), Error);
}

// ------------------------------------------------------ encoder/decoder --

TEST(EncoderDecoderTest, MeasurementsSurviveTheWireExactly) {
  // Entropy coding is lossless: decoded y must equal encoded y bit-exactly
  // across a whole record (keyframes + differentials + escapes).
  const auto db = small_db();
  DecoderConfig config;
  config.cs.keyframe_interval = 4;
  const auto book = train_difference_codebook(db, config.cs);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto& record = db.mote(0);
  for (std::size_t off = 0; off + 512 <= record.samples.size(); off += 512) {
    const auto packet = encoder.encode_window(
        std::span<const std::int16_t>(record.samples.data() + off, 512));
    const auto decoded = decoder.decode_measurements(packet);
    ASSERT_TRUE(decoded.has_value());
    const auto sent = encoder.last_measurements();
    ASSERT_EQ(decoded->size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ((*decoded)[i], sent[i]) << "measurement " << i;
    }
  }
}

TEST(EncoderDecoderTest, FirstPacketIsKeyframe) {
  const auto book = default_difference_codebook();
  EncoderConfig config;
  Encoder encoder(config, book);
  std::vector<std::int16_t> window(512, 100);
  const auto first = encoder.encode_window(window);
  EXPECT_EQ(first.kind, PacketKind::kAbsolute);
  const auto second = encoder.encode_window(window);
  EXPECT_EQ(second.kind, PacketKind::kDifferential);
  EXPECT_EQ(first.sequence, 0);
  EXPECT_EQ(second.sequence, 1);
}

TEST(EncoderDecoderTest, KeyframeIntervalHonoured) {
  const auto book = default_difference_codebook();
  EncoderConfig config;
  config.keyframe_interval = 3;
  Encoder encoder(config, book);
  std::vector<std::int16_t> window(512, 0);
  std::vector<PacketKind> kinds;
  for (int i = 0; i < 8; ++i) {
    kinds.push_back(encoder.encode_window(window).kind);
  }
  EXPECT_EQ(kinds[0], PacketKind::kAbsolute);
  EXPECT_EQ(kinds[1], PacketKind::kDifferential);
  EXPECT_EQ(kinds[3], PacketKind::kDifferential);
  EXPECT_EQ(kinds[4], PacketKind::kAbsolute);  // after 3 differentials
}

TEST(EncoderDecoderTest, RequestKeyframeForcesAbsolute) {
  const auto book = default_difference_codebook();
  Encoder encoder(EncoderConfig{}, book);
  std::vector<std::int16_t> window(512, 1);
  (void)encoder.encode_window(window);
  encoder.request_keyframe();
  EXPECT_EQ(encoder.encode_window(window).kind, PacketKind::kAbsolute);
}

TEST(EncoderDecoderTest, DifferentialWithoutKeyframeIsRejected) {
  const auto book = default_difference_codebook();
  DecoderConfig config;
  Decoder decoder(config, book);
  Encoder encoder(config.cs, book);
  std::vector<std::int16_t> window(512, 5);
  (void)encoder.encode_window(window);  // keyframe, not delivered
  const auto diff = encoder.encode_window(window);
  ASSERT_EQ(diff.kind, PacketKind::kDifferential);
  EXPECT_FALSE(decoder.decode_measurements(diff).has_value());
}

TEST(EncoderDecoderTest, SequenceGapDropsDifferentialsUntilKeyframe) {
  // A lost differential frame must not let later differentials decode
  // against stale state; the next keyframe re-synchronises.
  const auto book = default_difference_codebook();
  DecoderConfig config;
  config.cs.keyframe_interval = 3;
  Decoder decoder(config, book);
  Encoder encoder(config.cs, book);
  std::vector<std::int16_t> window(512, 0);
  util::Rng rng(31);
  const auto next_window = [&] {
    for (auto& s : window) {
      s = static_cast<std::int16_t>(rng.uniform_int(-200, 200));
    }
    return std::span<const std::int16_t>(window);
  };

  const auto p0 = encoder.encode_window(next_window());  // keyframe
  const auto p1 = encoder.encode_window(next_window());  // diff
  const auto p2 = encoder.encode_window(next_window());  // diff (lost)
  const auto p3 = encoder.encode_window(next_window());  // diff
  const auto p4 = encoder.encode_window(next_window());  // keyframe
  ASSERT_EQ(p4.kind, PacketKind::kAbsolute);

  EXPECT_TRUE(decoder.decode_measurements(p0).has_value());
  EXPECT_TRUE(decoder.decode_measurements(p1).has_value());
  // p2 is lost; p3 must be rejected (sequence gap), not mis-decoded.
  EXPECT_FALSE(decoder.decode_measurements(p3).has_value());
  // The keyframe re-syncs and decodes fine.
  EXPECT_TRUE(decoder.decode_measurements(p4).has_value());
}

TEST(EncoderDecoderTest, CorruptPayloadRejected) {
  const auto book = default_difference_codebook();
  DecoderConfig config;
  Decoder decoder(config, book);
  Packet bogus;
  bogus.kind = PacketKind::kAbsolute;
  bogus.payload = {1, 2};  // far too short for M values
  EXPECT_FALSE(decoder.decode_measurements(bogus).has_value());
}

TEST(EncoderDecoderTest, OnTheFlyMatchesTableProjection) {
  const auto db = small_db();
  const auto book = default_difference_codebook();
  EncoderConfig fly;
  EncoderConfig table = fly;
  table.on_the_fly_indices = false;
  Encoder a(fly, book);
  Encoder b(table, book);
  const auto& record = db.mote(1);
  const std::span<const std::int16_t> window(record.samples.data(), 512);
  (void)a.encode_window(window);
  (void)b.encode_window(window);
  const auto ya = a.last_measurements();
  const auto yb = b.last_measurements();
  for (std::size_t i = 0; i < ya.size(); ++i) {
    ASSERT_EQ(ya[i], yb[i]);
  }
}

TEST(EncoderDecoderTest, ReconstructionQualityAtCr50) {
  const auto db = small_db();
  DecoderConfig config;
  const auto book = train_difference_codebook(db, config.cs);
  CsEcgCodec codec(config, book);
  const auto report = codec.run_record<double>(db.mote(1));
  EXPECT_GT(report.cr, 40.0);
  EXPECT_LT(report.mean_prd, 30.0);
  EXPECT_GT(report.mean_iterations, 100.0);
}

TEST(EncoderDecoderTest, EncoderValidatesWindowSize) {
  const auto book = default_difference_codebook();
  Encoder encoder(EncoderConfig{}, book);
  std::vector<std::int16_t> wrong(100, 0);
  EXPECT_THROW(encoder.encode_window(wrong), Error);
}

TEST(EncoderDecoderTest, AbsoluteBitsValidation) {
  const auto book = default_difference_codebook();
  EncoderConfig config;
  config.absolute_bits = 12;  // cannot hold 1024 * 512 / sqrt(12)
  EXPECT_THROW(Encoder(config, book), Error);
}

TEST(EncoderDecoderTest, FootprintFitsTheMote) {
  const auto book = default_difference_codebook();
  Encoder encoder(EncoderConfig{}, book);
  EXPECT_LT(encoder.ram_bytes(), 10u * 1024u);   // MSP430F1611 RAM
  EXPECT_LT(encoder.flash_bytes(), 48u * 1024u);
  // On-the-fly configuration keeps flash tiny (no 12 kB index table).
  EXPECT_LT(encoder.flash_bytes(), 2u * 1024u);
}

// ---------------------------------------------------------------- codec --

TEST(CodecTest, PerWindowReportsWhenRequested) {
  const auto db = small_db();
  DecoderConfig config;
  const auto book = default_difference_codebook();
  CsEcgCodec codec(config, book);
  const auto report = codec.run_record<float>(db.mote(0), true);
  EXPECT_EQ(report.per_window.size(), report.windows);
  std::size_t bits = 0;
  for (const auto& w : report.per_window) {
    bits += w.wire_bits;
    EXPECT_GT(w.prd, 0.0);
  }
  EXPECT_EQ(bits, report.compressed_bits);
}

TEST(CodecTest, RerunningARecordIsDeterministic) {
  const auto db = small_db();
  DecoderConfig config;
  const auto book = default_difference_codebook();
  CsEcgCodec codec(config, book);
  const auto a = codec.run_record<double>(db.mote(0));
  const auto b = codec.run_record<double>(db.mote(0));
  EXPECT_EQ(a.compressed_bits, b.compressed_bits);
  EXPECT_DOUBLE_EQ(a.mean_prd, b.mean_prd);
}

TEST(CodecTest, RejectsShortRecords) {
  DecoderConfig config;
  const auto book = default_difference_codebook();
  CsEcgCodec codec(config, book);
  ecg::Record tiny;
  tiny.sample_rate_hz = 256.0;
  tiny.samples.assign(100, 0);
  EXPECT_THROW(codec.run_record<double>(tiny), Error);
}

// ------------------------------------------------ sequence wraparound --
// The 16-bit packet sequence wraps every 65536 windows (~36 h at the
// paper's 2 s window period). A monitor runs for weeks: these tests
// stream multiple full cycles and the post-outage re-sync path. A small
// geometry keeps the entropy-coding work (the only part under test)
// cheap; reconstruct() is never called.

EncoderConfig tiny_cs() {
  EncoderConfig cs;
  cs.window = 64;
  cs.measurements = 32;
  cs.d = 8;
  return cs;
}

DecoderConfig tiny_decoder_config() {
  DecoderConfig config;
  config.cs = tiny_cs();
  config.levels = 3;
  return config;
}

std::vector<std::int16_t> tiny_window() {
  std::vector<std::int16_t> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::int16_t>(50 * ((i % 8) - 3));
  }
  return x;
}

TEST(SequenceWraparoundTest, DecoderSurvivesTwoFullCycles) {
  const auto book = default_difference_codebook();
  const auto config = tiny_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  // > 2 full uint16 cycles, deliberately not a multiple of the keyframe
  // interval so keyframes drift across the wrap points.
  constexpr std::size_t kWindows = 2 * 65536 + 257;
  std::vector<std::int32_t> y;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const Packet packet = encoder.encode_window(x);
    ASSERT_TRUE(decoder.decode_measurements_into(packet, y))
        << "window " << w << " (sequence " << packet.sequence << ")";
    if (w % 29989 == 0) {  // spot-check exactness without the full cost
      const auto sent = encoder.last_measurements();
      ASSERT_TRUE(std::equal(y.begin(), y.end(), sent.begin(), sent.end()))
          << "window " << w;
    }
  }
}

TEST(SequenceWraparoundTest, KeyframeResyncsAfterLongOutage) {
  const auto book = default_difference_codebook();
  auto config = tiny_decoder_config();
  // Keyframes only on demand: the outage must end on a differential
  // unless the sender is explicitly asked to re-sync.
  config.cs.keyframe_interval = std::size_t{1} << 20;
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  std::vector<std::int32_t> y;
  for (std::size_t w = 0; w < 8; ++w) {
    ASSERT_TRUE(decoder.decode_measurements_into(encoder.encode_window(x), y));
  }
  // 40000 windows never reach the decoder (link outage). The next frame
  // is > 2^15 - kStaleHorizon ahead, so its int16 distance from the last
  // accepted sequence wraps negative — the case that used to be
  // classified "stale" forever, deadlocking the decoder.
  for (std::size_t w = 0; w < 40000; ++w) {
    encoder.encode_window(x);
  }
  const Packet differential = encoder.encode_window(x);
  ASSERT_EQ(differential.kind, PacketKind::kDifferential);
  ASSERT_LT(static_cast<std::int16_t>(
                static_cast<std::uint16_t>(differential.sequence - 7)),
            0)
      << "outage not long enough to wrap the int16 distance";
  // A differential can't re-prime the chain no matter what.
  EXPECT_FALSE(decoder.decode_measurements_into(differential, y));
  // An absolute keyframe is a stream re-sync and must be accepted.
  encoder.request_keyframe();
  const Packet keyframe = encoder.encode_window(x);
  ASSERT_EQ(keyframe.kind, PacketKind::kAbsolute);
  EXPECT_TRUE(decoder.decode_measurements_into(keyframe, y));
  // ... and the differential chain continues from it.
  EXPECT_TRUE(decoder.decode_measurements_into(encoder.encode_window(x), y));
}

TEST(SequenceWraparoundTest, StaleFramesWithinHorizonStayRejected) {
  const auto book = default_difference_codebook();
  auto config = tiny_decoder_config();
  config.cs.keyframe_interval = 4;
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  std::vector<Packet> history;
  std::vector<std::int32_t> y;
  for (std::size_t w = 0; w < 32; ++w) {
    history.push_back(encoder.encode_window(x));
    ASSERT_TRUE(decoder.decode_measurements_into(history.back(), y));
  }
  // Duplicate of the newest frame: distance 0.
  EXPECT_FALSE(decoder.decode_measurements_into(history[31], y));
  // A recent absolute keyframe (keyframes land every interval + 1 = 5
  // packets: 0, 5, ..., 30): a late retransmission, not a re-sync —
  // rewinding to it would corrupt the differential chain.
  ASSERT_EQ(history[30].kind, PacketKind::kAbsolute);
  EXPECT_FALSE(decoder.decode_measurements_into(history[30], y));
  // Older differentials likewise.
  EXPECT_FALSE(decoder.decode_measurements_into(history[17], y));
  // The live chain is untouched by the rejections.
  EXPECT_TRUE(decoder.decode_measurements_into(encoder.encode_window(x), y));
  const auto sent = encoder.last_measurements();
  EXPECT_TRUE(std::equal(y.begin(), y.end(), sent.begin(), sent.end()));
}

TEST(SequenceWraparoundTest, FirstFramePrimesAtTheWrapBoundary) {
  const auto book = default_difference_codebook();
  auto config = tiny_decoder_config();
  config.cs.keyframe_interval = std::size_t{1} << 20;
  Encoder encoder(config.cs, book);
  const auto x = tiny_window();
  // Advance the sender to the very end of the sequence space.
  for (std::size_t w = 0; w < 65535; ++w) {
    encoder.encode_window(x);
  }
  // A decoder joining the stream here: the first differential is useless
  // (nothing to difference against) ...
  Decoder decoder(config, book);
  std::vector<std::int32_t> y;
  const Packet tail = encoder.encode_window(x);
  ASSERT_EQ(tail.sequence, 65535);
  EXPECT_FALSE(decoder.decode_measurements_into(tail, y));
  // ... but the keyframe right after — at wrapped sequence 0 — primes the
  // chain, and decoding proceeds across the boundary.
  encoder.request_keyframe();
  const Packet keyframe = encoder.encode_window(x);
  ASSERT_EQ(keyframe.sequence, 0);
  ASSERT_EQ(keyframe.kind, PacketKind::kAbsolute);
  EXPECT_TRUE(decoder.decode_measurements_into(keyframe, y));
  EXPECT_TRUE(decoder.decode_measurements_into(encoder.encode_window(x), y));
  EXPECT_EQ(encoder.last_measurements().size(), y.size());
}

// --------------------------------------------- warm-prior invalidation --

// The invalidation matrix: every event after which the cached solution
// is no longer the neighbouring window's must drop the warm prior, and
// nothing else may. Each trigger gets its own test.

DecoderConfig warm_decoder_config() {
  auto config = tiny_decoder_config();
  config.prior.warm_start = true;
  config.cs.keyframe_interval = 1000;  // keyframes only when forced
  return config;
}

// Decodes one full window (measurements + reconstruction) so the decoder
// caches its solution as the next window's prior.
void prime_prior(Decoder& decoder, Encoder& encoder,
                 std::span<const std::int16_t> x) {
  const auto window = decoder.decode<float>(encoder.encode_window(x));
  ASSERT_TRUE(window.has_value());
  ASSERT_TRUE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, ColdPolicyNeverStoresAPrior) {
  const auto book = default_difference_codebook();
  const auto config = tiny_decoder_config();  // prior.warm_start off
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  ASSERT_TRUE(decoder.decode<float>(encoder.encode_window(x)).has_value());
  EXPECT_FALSE(decoder.has_warm_prior<float>());
  EXPECT_FALSE(decoder.has_warm_prior<double>());
}

TEST(PriorInvalidation, PriorsArePerPrecision) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_prior(decoder, encoder, tiny_window());
  EXPECT_TRUE(decoder.has_warm_prior<float>());
  EXPECT_FALSE(decoder.has_warm_prior<double>());  // never solved double
}

TEST(PriorInvalidation, KeyframeDropsThePrior) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  prime_prior(decoder, encoder, x);
  ASSERT_TRUE(decoder.decode<float>(encoder.encode_window(x)).has_value());
  EXPECT_TRUE(decoder.has_warm_prior<float>());  // differentials keep it

  // A keyframe re-syncs the stream: the entropy stage alone (no
  // reconstruction yet) must already have dropped the prior, so the
  // keyframe's own solve starts cold.
  encoder.request_keyframe();
  const auto keyframe = encoder.encode_window(x);
  ASSERT_EQ(keyframe.kind, PacketKind::kAbsolute);
  std::vector<std::int32_t> y;
  ASSERT_TRUE(decoder.decode_measurements_into(keyframe, y));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, GapAbandonResyncStartsCold) {
  // The ARQ gap-abandon path: a lost differential poisons the chain, the
  // following differentials are rejected, and the re-sync keyframe must
  // decode cold — the prior belongs to a window several losses back.
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto x = tiny_window();
  prime_prior(decoder, encoder, x);

  (void)encoder.encode_window(x);  // lost differential
  const auto after_gap = encoder.encode_window(x);
  std::vector<std::int32_t> y;
  EXPECT_FALSE(decoder.decode_measurements_into(after_gap, y));
  // A reject is not a re-sync: the prior still matches the last window
  // this decoder actually reconstructed.
  EXPECT_TRUE(decoder.has_warm_prior<float>());

  encoder.request_keyframe();
  ASSERT_TRUE(decoder.decode_measurements_into(encoder.encode_window(x), y));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, ReProfileDropsThePrior) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_prior(decoder, encoder, tiny_window());

  const auto profile = profile_from(decoder.config());
  ASSERT_TRUE(profile.has_value());
  // Even the same-profile no-op re-announce is a chain re-sync.
  ASSERT_TRUE(decoder.apply_profile(*profile));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, ResetDropsThePrior) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_prior(decoder, encoder, tiny_window());
  decoder.reset();
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, SetBackendDropsThePrior) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_prior(decoder, encoder, tiny_window());
  decoder.set_backend(linalg::reference_backend());
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, SetPriorPolicyDropsThePrior) {
  const auto book = default_difference_codebook();
  const auto config = warm_decoder_config();
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_prior(decoder, encoder, tiny_window());
  decoder.set_prior_policy(decoder.config().prior);  // even a no-op swap
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(PriorInvalidation, WarmDecodeMatchesColdReconstruction) {
  // Policy must trade iterations, never the fixed point: the warm decode
  // of a window lands where the cold decode of the same window lands.
  const auto book = default_difference_codebook();
  auto cold_config = tiny_decoder_config();
  // Drive both solves to the minimiser, not the default loose stop, so
  // the comparison is about the fixed point rather than the stop rule.
  cold_config.tolerance = 1e-9;
  cold_config.max_iterations = 20000;
  auto warm_config = warm_decoder_config();
  warm_config.cs = cold_config.cs;
  warm_config.tolerance = cold_config.tolerance;
  warm_config.max_iterations = cold_config.max_iterations;
  Encoder encoder(cold_config.cs, book);
  Decoder cold(cold_config, book);
  Decoder warm(warm_config, book);
  const auto x = tiny_window();
  for (int w = 0; w < 3; ++w) {
    const auto packet = encoder.encode_window(x);
    const auto a = cold.decode<float>(packet);
    const auto b = warm.decode<float>(packet);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    for (std::size_t i = 0; i < a->samples.size(); ++i) {
      EXPECT_NEAR(a->samples[i], b->samples[i], 1.0f) << "sample " << i;
    }
    if (w > 0) {
      EXPECT_LE(b->iterations, a->iterations);  // the point of the prior
    }
  }
}

// ------------------------------------- group warm-prior invalidation --

// The lead-group extension of the invalidation matrix: the prior is
// group-wide (one blob of leads * window doubles), so every event that
// re-syncs ANY lead's difference chain — and the chains only re-sync
// together, the keyframe decision being group-wide — must drop the
// whole group's prior. A whole-group reject is not a re-sync and must
// keep it.

DecoderConfig tiny_group_config(std::size_t leads) {
  auto config = warm_decoder_config();
  config.cs.leads = leads;
  return config;
}

// Lead-major flat group window: lead 0 is the single-lead fixture, the
// others are attenuated copies (correlated support, distinct samples).
std::vector<std::int16_t> tiny_group_window(std::size_t leads) {
  const auto base = tiny_window();
  std::vector<std::int16_t> flat(leads * base.size());
  for (std::size_t l = 0; l < leads; ++l) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      flat[l * base.size() + i] =
          static_cast<std::int16_t>(base[i] / static_cast<int>(l + 1));
    }
  }
  return flat;
}

void prime_group_prior(Decoder& decoder, Encoder& encoder,
                       std::span<const std::int16_t> xs_flat) {
  const auto windows = decoder.decode_group<float>(encoder.encode_group(xs_flat));
  ASSERT_TRUE(windows.has_value());
  ASSERT_EQ(windows->size(), encoder.config().leads);
  ASSERT_TRUE(decoder.has_warm_prior<float>());
}

TEST(GroupPriorInvalidation, GroupKeyframeDropsTheGroupPrior) {
  const auto book = default_difference_codebook();
  const auto config = tiny_group_config(3);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto xs = tiny_group_window(3);
  prime_group_prior(decoder, encoder, xs);
  // Differential groups keep the prior alive.
  ASSERT_TRUE(decoder.decode_group<float>(encoder.encode_group(xs)).has_value());
  EXPECT_TRUE(decoder.has_warm_prior<float>());

  // The group-wide keyframe: the entropy stage alone must already have
  // dropped the prior, so the keyframe group's joint solve starts cold.
  encoder.request_keyframe();
  const auto keyframe_group = encoder.encode_group(xs);
  ASSERT_EQ(keyframe_group.front().kind, PacketKind::kAbsolute);
  std::vector<std::int32_t> y_flat;
  ASSERT_TRUE(decoder.decode_group_measurements_into(keyframe_group, y_flat));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(GroupPriorInvalidation, GroupGapAbandonResyncStartsCold) {
  const auto book = default_difference_codebook();
  const auto config = tiny_group_config(2);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto xs = tiny_group_window(2);
  prime_group_prior(decoder, encoder, xs);

  (void)encoder.encode_group(xs);  // whole group lost in flight
  const auto after_gap = encoder.encode_group(xs);
  std::vector<std::int32_t> y_flat;
  EXPECT_FALSE(decoder.decode_group_measurements_into(after_gap, y_flat));
  // A reject is not a re-sync: the prior still matches the last group
  // this decoder actually reconstructed.
  EXPECT_TRUE(decoder.has_warm_prior<float>());

  encoder.request_keyframe();
  ASSERT_TRUE(
      decoder.decode_group_measurements_into(encoder.encode_group(xs), y_flat));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(GroupPriorInvalidation, ReProfileDropsTheGroupPrior) {
  const auto book = default_difference_codebook();
  const auto config = tiny_group_config(2);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_group_prior(decoder, encoder, tiny_group_window(2));

  const auto profile = profile_from(decoder.config());
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->leads, 2u);
  // Even the same-profile no-op re-announce is a chain re-sync for
  // every lead at once.
  ASSERT_TRUE(decoder.apply_profile(*profile));
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(GroupPriorInvalidation, ResetDropsTheGroupPrior) {
  const auto book = default_difference_codebook();
  const auto config = tiny_group_config(2);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  prime_group_prior(decoder, encoder, tiny_group_window(2));
  decoder.reset();
  EXPECT_FALSE(decoder.has_warm_prior<float>());
}

TEST(GroupPriorInvalidation, SingleLeadCorruptionRejectsGroupAndKeepsPrior) {
  // All-or-nothing: one bad lead poisons nothing — the group is rejected
  // whole, every chain stays put and the prior survives, so the next
  // clean group decodes differentially and warm.
  const auto book = default_difference_codebook();
  const auto config = tiny_group_config(3);
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto xs = tiny_group_window(3);
  prime_group_prior(decoder, encoder, xs);

  auto group = encoder.encode_group(xs);
  group[1].payload[0] ^= 0x01;  // corrupt the middle lead only
  std::vector<std::int32_t> y_flat;
  EXPECT_FALSE(decoder.decode_group_measurements_into(group, y_flat));
  EXPECT_TRUE(decoder.has_warm_prior<float>());

  // The chains did not advance on the reject, so a retransmission of the
  // same sequence (clean this time) decodes.
  group[1].payload[0] ^= 0x01;
  ASSERT_TRUE(decoder.decode_group_measurements_into(group, y_flat));
  EXPECT_EQ(y_flat.size(), 3u * config.cs.measurements);
}

TEST(GroupPriorInvalidation, WeightedGroupSeedsEachLeadFromItsOwnPrior) {
  // Weighted l1 has no l2,1 coupling, so a weighted group solves its
  // leads as uncoupled rows — but the prior is still the group's: it
  // survives the decode whole, and each lead seeds from its own row of
  // it (not from a neighbouring lead's fresh solution), so repeating the
  // group makes every lead's solve cheaper.
  const auto book = default_difference_codebook();
  auto config = tiny_group_config(3);
  config.prior.weighted_l1 = true;
  Encoder encoder(config.cs, book);
  Decoder decoder(config, book);
  const auto xs = tiny_group_window(3);
  const auto first = decoder.decode_group<float>(encoder.encode_group(xs));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(decoder.has_warm_prior<float>());
  const auto repeat = decoder.decode_group<float>(encoder.encode_group(xs));
  ASSERT_TRUE(repeat.has_value());
  EXPECT_TRUE(decoder.has_warm_prior<float>());
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_LT((*repeat)[l].iterations, (*first)[l].iterations)
        << "lead " << l;
  }
}

TEST(GroupPriorInvalidation, WarmGroupDecodeMatchesColdFixedPoint) {
  // The group prior must trade iterations, never the fixed point: warm
  // and cold joint decodes of the same group land on the same samples.
  const auto book = default_difference_codebook();
  auto cold_config = tiny_group_config(2);
  cold_config.prior.warm_start = false;
  cold_config.tolerance = 1e-9;
  cold_config.max_iterations = 20000;
  auto warm_config = tiny_group_config(2);
  warm_config.tolerance = cold_config.tolerance;
  warm_config.max_iterations = cold_config.max_iterations;
  Encoder encoder(cold_config.cs, book);
  Decoder cold(cold_config, book);
  Decoder warm(warm_config, book);
  const auto xs = tiny_group_window(2);
  for (int w = 0; w < 3; ++w) {
    const auto group = encoder.encode_group(xs);
    const auto a = cold.decode_group<float>(group);
    const auto b = warm.decode_group<float>(group);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    for (std::size_t l = 0; l < a->size(); ++l) {
      for (std::size_t i = 0; i < (*a)[l].samples.size(); ++i) {
        EXPECT_NEAR((*a)[l].samples[i], (*b)[l].samples[i], 1.0f)
            << "lead " << l << " sample " << i;
      }
    }
    if (w > 0) {
      EXPECT_LE((*b)[0].iterations, (*a)[0].iterations);
    }
  }
}

}  // namespace
}  // namespace csecg::core
