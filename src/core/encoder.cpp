#include "csecg/core/encoder.hpp"

#include <cmath>
#include <optional>

#include "csecg/core/mote_rng.hpp"
#include "csecg/core/residual.hpp"
#include "csecg/fixedpoint/msp430_counters.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::core {

std::size_t measurements_for_cr(std::size_t window, double cr_percent) {
  CSECG_CHECK(cr_percent > 0.0 && cr_percent < 100.0,
              "target CR must be in (0, 100)");
  const double m =
      static_cast<double>(window) * (1.0 - cr_percent / 100.0);
  return static_cast<std::size_t>(std::lround(m));
}

std::int32_t q15_inverse_sqrt(std::size_t d) {
  CSECG_CHECK(d >= 1, "d must be positive");
  return static_cast<std::int32_t>(
      std::lround(32768.0 / std::sqrt(static_cast<double>(d))));
}

void project_window_q15(const linalg::SparseBinaryMatrix& phi,
                        std::int32_t scale_q15,
                        std::span<const std::int16_t> x,
                        std::span<std::int32_t> y) {
  phi.accumulate_integer(x, y);
  for (auto& value : y) {
    // Rounded Q15 multiply; the 64-bit intermediate mirrors the MSP430's
    // MAC register pair.
    const std::int64_t product =
        static_cast<std::int64_t>(value) * scale_q15;
    value = static_cast<std::int32_t>((product + (1 << 14)) >> 15);
  }
}

namespace {

SensingMatrixConfig sensing_config_from(const EncoderConfig& config) {
  SensingMatrixConfig sensing;
  sensing.type = SensingMatrixType::kSparseBinary;
  sensing.rows = config.measurements;
  sensing.cols = config.window;
  sensing.d = config.d;
  sensing.seed = config.seed;
  return sensing;
}

coding::HuffmanCodebook checked_profile_codebook(
    const StreamProfile& profile) {
  const char* reason = profile.invalid_reason();
  CSECG_CHECK(reason == nullptr, reason ? reason : "invalid stream profile");
  auto codebook = resolve_profile_codebook(profile.codebook_id);
  CSECG_CHECK(codebook.has_value(),
              "stream profile names an unresolvable codebook");
  return std::move(*codebook);
}

}  // namespace

EncoderConfig encoder_config_from(const StreamProfile& profile) {
  EncoderConfig config;
  config.window = profile.window;
  config.measurements = profile.measurements;
  config.d = profile.d;
  config.seed = profile.seed;
  config.keyframe_interval = profile.keyframe_interval;
  config.absolute_bits = profile.absolute_bits;
  config.on_the_fly_indices = profile.on_the_fly_indices;
  config.measurement_shift = profile.measurement_shift;
  config.leads = profile.leads;
  return config;
}

Encoder::Encoder(const StreamProfile& profile)
    : Encoder(encoder_config_from(profile),
              checked_profile_codebook(profile)) {
  profile_ = profile;
  announce_pending_ = true;
}

Encoder::Encoder(const EncoderConfig& config,
                 coding::HuffmanCodebook codebook)
    : config_(config),
      sensing_(sensing_config_from(config)),
      codebook_(std::move(codebook)),
      current_y_(config.measurements, 0),
      previous_y_(config.leads * config.measurements, 0),
      diff_scratch_(config.measurements, 0),
      zero_scratch_(config.measurements, 0) {
  CSECG_CHECK(codebook_.size() == kDiffAlphabetSize,
              "encoder needs the 512-symbol difference codebook");
  CSECG_CHECK(config.leads >= 1 && config.leads <= StreamProfile::kMaxLeads,
              "lead count out of range");
  CSECG_CHECK(config.absolute_bits >= 12 && config.absolute_bits <= 32,
              "absolute_bits out of range");
  // The scaled worst-case sum 2^10 * N / sqrt(d) must fit the absolute
  // fixed width (11-bit signed samples, Q15 scale applied).
  CSECG_CHECK(static_cast<double>(config.window) * 1024.0 /
                      std::sqrt(static_cast<double>(config.d)) <
                  std::ldexp(1.0, static_cast<int>(config.absolute_bits) - 1),
              "absolute_bits too small for worst-case measurement sums");
}

void Encoder::reset() {
  sequence_ = 0;
  packets_since_keyframe_ = 0;
  have_previous_ = false;
  force_keyframe_ = false;
  std::fill(previous_y_.begin(), previous_y_.end(), 0);
  announce_pending_ = profile_.has_value();
}

void Encoder::set_profile(const StreamProfile& profile) {
  auto codebook = checked_profile_codebook(profile);
  config_ = encoder_config_from(profile);
  sensing_ = SensingMatrix(sensing_config_from(config_));
  codebook_ = std::move(codebook);
  current_y_.assign(config_.measurements, 0);
  previous_y_.assign(config_.leads * config_.measurements, 0);
  diff_scratch_.assign(config_.measurements, 0);
  zero_scratch_.assign(config_.measurements, 0);
  // The difference chain cannot cross a geometry change: the next window
  // is a keyframe, announced by the profile frame that precedes it.
  have_previous_ = false;
  force_keyframe_ = true;
  packets_since_keyframe_ = 0;
  profile_ = profile;
  announce_pending_ = true;
}

std::optional<Packet> Encoder::take_profile_packet() {
  if (!announce_pending_ || !profile_.has_value()) {
    return std::nullopt;
  }
  announce_pending_ = false;
  Packet packet;
  packet.sequence = sequence_++;
  packet.kind = PacketKind::kProfile;
  packet.payload = profile_->serialize();
  obs::add("encoder.profile.announced");
  return packet;
}

void Encoder::project_window(std::span<const std::int16_t> x,
                             std::uint16_t sequence) {
  CSECG_CHECK(x.size() == config_.window,
              "window length does not match encoder configuration");

  // Stage 1 — CS projection, integer-only (the 82 ms loop of §IV-A2),
  // followed by the Q15 1/sqrt(d) scale on the hardware multiplier.
  obs::SpanScope stage("sense", sequence);
  if (config_.on_the_fly_indices) {
    // The paper's configuration: regenerate each column's d row indices
    // from the shared 16-bit PRNG while accumulating — no index table in
    // flash. The PRNG/dup-check cost is charged inside
    // generate_column_indices.
    Xorshift16 prng(static_cast<std::uint16_t>(config_.seed));
    std::fill(current_y_.begin(), current_y_.end(), 0);
    std::uint16_t column_rows[64];
    CSECG_CHECK(config_.d <= 64, "d too large for the mote index buffer");
    for (std::size_t c = 0; c < config_.window; ++c) {
      generate_column_indices(prng,
                              static_cast<std::uint16_t>(config_.measurements),
                              config_.d, column_rows);
      const std::int32_t xc = x[c];
      for (std::size_t k = 0; k < config_.d; ++k) {
        current_y_[column_rows[k]] += xc;
      }
    }
    const std::int32_t scale = q15_inverse_sqrt(config_.d);
    for (auto& value : current_y_) {
      const std::int64_t product =
          static_cast<std::int64_t>(value) * scale;
      value = static_cast<std::int32_t>((product + (1 << 14)) >> 15);
    }
  } else {
    project_window_q15(sensing_.sparse(), q15_inverse_sqrt(config_.d), x,
                       std::span<std::int32_t>(current_y_));
  }
  if (config_.measurement_shift > 0) {
    // Rounded arithmetic right shift: lossy measurement quantisation.
    const unsigned s = config_.measurement_shift;
    const std::int32_t half = std::int32_t{1} << (s - 1);
    for (auto& value : current_y_) {
      value = (value + half) >> s;
    }
  }
  {
    fixedpoint::Msp430OpCounts ops;
    const auto nnz = static_cast<std::uint64_t>(config_.window) * config_.d;
    ops.add16 = 2 * nnz;           // 32-bit accumulate = add + addc
    ops.load = 2 * nnz /* accumulators */ + config_.window /* samples */;
    if (!config_.on_the_fly_indices) {
      ops.load += nnz;             // index table reads from flash
    }
    ops.store = 2 * nnz;
    ops.branch = config_.window;   // column loop
    // Scaling: one 32x16 multiply (two 16x16 HW ops) + shift per row.
    ops.mul16 = 2 * config_.measurements;
    ops.shift = config_.measurements;
    ops.load += 2 * config_.measurements;
    ops.store += 2 * config_.measurements;
    fixedpoint::charge(ops);
  }
}

void Encoder::write_absolute(coding::BitWriter& writer,
                             std::uint16_t sequence) {
  obs::SpanScope huffman_span("huffman", sequence);
  huffman_span.attribute("keyframe", 1.0);
  const unsigned bits = config_.absolute_bits;
  const std::uint32_t mask =
      bits == 32 ? ~std::uint32_t{0}
                 : ((std::uint32_t{1} << bits) - 1);
  fixedpoint::Msp430OpCounts ops;
  for (const auto value : current_y_) {
    writer.write_bits(static_cast<std::uint32_t>(value) & mask, bits);
    ops.shift += bits;
    ops.load += 2;
    ops.store += (bits + 15) / 16;
  }
  fixedpoint::charge(ops);
}

void Encoder::write_differential(std::span<const std::int32_t> previous,
                                 coding::BitWriter& writer,
                                 std::uint16_t sequence) {
  // Stage 2 — redundancy removal: the difference vector is materialised
  // (rather than fused into the entropy loop) so the residual and
  // Huffman stages are separately observable; encode_difference charges
  // the same MSP430 subtract either way, so the cycle model is
  // unchanged.
  {
    obs::SpanScope residual_span("residual", sequence);
    for (std::size_t i = 0; i < current_y_.size(); ++i) {
      diff_scratch_[i] = current_y_[i] - previous[i];
    }
  }
  // Stage 3 — Huffman coding of the differences.
  obs::SpanScope huffman_span("huffman", sequence);
  huffman_span.attribute("keyframe", 0.0);
  encode_difference(std::span<const std::int32_t>(diff_scratch_),
                    std::span<const std::int32_t>(zero_scratch_),
                    codebook_, writer);
}

std::vector<Packet> Encoder::encode_group(
    std::span<const std::int16_t> xs_flat) {
  const std::size_t leads = config_.leads;
  const std::size_t n = config_.window;
  const std::size_t m = config_.measurements;
  CSECG_CHECK(xs_flat.size() == leads * n,
              "group window length does not match encoder configuration");

  // One keyframe decision for the whole group: every lead's difference
  // chain re-syncs at the same window, so a receiver never has to track
  // per-lead chain phases.
  const bool keyframe =
      !have_previous_ || force_keyframe_ ||
      (config_.keyframe_interval > 0 &&
       packets_since_keyframe_ >= config_.keyframe_interval);
  const std::uint16_t sequence = sequence_++;

  std::vector<Packet> packets;
  packets.reserve(leads);
  for (std::size_t l = 0; l < leads; ++l) {
    // The on-the-fly PRNG restarts from the shared seed inside, so every
    // lead sees the same Phi — the group shares one sensing schedule.
    project_window(xs_flat.subspan(l * n, n), sequence);

    Packet packet;
    packet.sequence = sequence;
    packet.lead = static_cast<std::uint8_t>(l);
    coding::BitWriter writer;
    if (keyframe) {
      packet.kind = PacketKind::kAbsolute;
      write_absolute(writer, sequence);
    } else {
      packet.kind = PacketKind::kDifferential;
      write_differential(
          std::span<const std::int32_t>(previous_y_.data() + l * m, m),
          writer, sequence);
    }
    packet.payload = writer.finish();
    std::copy(current_y_.begin(), current_y_.end(),
              previous_y_.begin() + static_cast<std::ptrdiff_t>(l * m));
    packets.push_back(std::move(packet));
  }

  if (keyframe) {
    packets_since_keyframe_ = 0;
    force_keyframe_ = false;
  } else {
    ++packets_since_keyframe_;
  }
  have_previous_ = true;
  return packets;
}

Packet Encoder::encode_window(std::span<const std::int16_t> x) {
  CSECG_CHECK(config_.leads == 1,
              "encode_window is single-lead; group streams use encode_group");
  return std::move(encode_group(x).front());
}

std::size_t Encoder::ram_bytes() const {
  // The M-entry 32-bit staging buffer plus one M-entry previous vector
  // per lead, the 512-sample window of 16-bit ADC values, and the
  // bit-writer staging buffer (worst case one byte per symbol-bit / 8,
  // bounded by a packet).
  const std::size_t buffers =
      (1 + config_.leads) * config_.measurements * sizeof(std::int32_t);
  const std::size_t window = config_.window * sizeof(std::int16_t);
  const std::size_t staging = 512;
  return buffers + window + staging;
}

std::size_t Encoder::flash_bytes() const {
  if (config_.on_the_fly_indices) {
    // Only the Huffman codebook (codes + lengths) and a few constants;
    // the sensing matrix lives in the 2-byte PRNG seed.
    return codebook_.storage_bytes() + 16;
  }
  // Sensing-matrix index table + Huffman codebook.
  return sensing_.storage_bytes() + codebook_.storage_bytes();
}

}  // namespace csecg::core
