#ifndef CSECG_CORE_ENCODER_HPP
#define CSECG_CORE_ENCODER_HPP

/// \file encoder.hpp
/// The mote-side CS encoder (Fig 1, top path):
///
///   x (512 ADC counts) --sparse binary projection--> y (M integer sums)
///     --redundancy removal--> y_t - y_{t-1}
///     --Huffman--> packet payload
///
/// Everything is integer arithmetic: the 1/sqrt(d) scale of the sensing
/// matrix is deferred to the decoder (it commutes with the linear
/// pipeline), so the MSP430 performs only 16/32-bit additions, table
/// lookups and shifts. Every operation is charged to the active
/// fixedpoint::Msp430CounterScope, which platform::Msp430Model turns into
/// the paper's cycle/CPU numbers.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/huffman.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/core/sensing_matrix.hpp"
#include "csecg/core/stream_profile.hpp"

namespace csecg::core {

struct EncoderConfig {
  std::size_t window = 512;        ///< N: 2 s at 256 Hz
  std::size_t measurements = 256;  ///< M: sets the compression ratio
  std::size_t d = 12;              ///< non-zeros per sensing column
  std::uint64_t seed = 42;         ///< shared with the decoder
  /// Every this-many packets an absolute (re-sync) packet is emitted; the
  /// first packet is always absolute.
  std::size_t keyframe_interval = 64;
  /// Fixed-width bits per value in absolute packets. 20 bits covers the
  /// worst-case |y| <= 2^10 * N / sqrt(d) for N = 512, d = 12.
  unsigned absolute_bits = 20;
  /// When true (the paper's configuration), the sensing-matrix row indices
  /// are regenerated every window from the 16-bit PRNG instead of being
  /// read from a stored table — trading ~60 ms of the 82 ms projection
  /// time for ~12 kB of flash the MSP430F1611 does not have.
  bool on_the_fly_indices = true;
  /// Rounded right-shift applied to the scaled measurements before the
  /// difference stage — lossy measurement quantisation. 0 reproduces the
  /// paper; k > 0 trades reconstruction accuracy for wire bits (the
  /// EXP-A5 ablation). The decoder undoes the scale.
  unsigned measurement_shift = 0;
  /// Leads per window group (1..8). Every lead of a group shares the
  /// sensing seed — one Phi, regenerated on the fly per lead — and rides
  /// one sequence/ARQ stream distinguished by the packet lead tag. 1 is
  /// the classic single-lead stream and keeps every wire byte identical
  /// to a pre-group encoder.
  std::size_t leads = 1;
};

/// Nominal (pre-entropy-coding) measurement count for a target CR in
/// percent: M = N * (1 - CR/100). The realised CR, measured from actual
/// wire bits, additionally reflects the difference + Huffman stages.
std::size_t measurements_for_cr(std::size_t window, double cr_percent);

/// Q15 fixed-point representation of the sensing scale 1/sqrt(d). The
/// mote applies this with one hardware multiply per measurement, which is
/// what keeps the difference signal inside the paper's [-256, 255]
/// codebook range.
std::int32_t q15_inverse_sqrt(std::size_t d);

/// The mote's integer projection: y[r] = (sum of samples hitting row r)
/// * scale_q15 >> 15, with rounding. Shared by the encoder and the
/// codebook trainer so both see identical integers.
void project_window_q15(const linalg::SparseBinaryMatrix& phi,
                        std::int32_t scale_q15,
                        std::span<const std::int16_t> x,
                        std::span<std::int32_t> y);

/// The encoder-side fields of a stream profile as an EncoderConfig.
EncoderConfig encoder_config_from(const StreamProfile& profile);

class Encoder {
 public:
  Encoder(const EncoderConfig& config, coding::HuffmanCodebook codebook);

  /// Profile-driven construction: geometry and codebook come entirely
  /// from \p profile (which must be valid() with a resolvable codebook
  /// id). The profile is marked for announcement, so the caller's first
  /// take_profile_packet() yields the session-start kProfile frame.
  explicit Encoder(const StreamProfile& profile);

  const EncoderConfig& config() const { return config_; }
  const SensingMatrix& sensing() const { return sensing_; }
  const coding::HuffmanCodebook& codebook() const { return codebook_; }

  /// Encodes one window, the one encode body for every lead count:
  /// \p xs_flat packs config().leads windows back to back (leads * window
  /// samples, lead-major). The returned packets share one sequence number
  /// and one kind — the keyframe decision is group-wide, so every lead's
  /// difference chain re-syncs together — and carry lead tags
  /// 0..leads-1. Every lead is projected through the same Phi (the
  /// on-the-fly PRNG restarts from the shared seed per lead), so the
  /// group costs one seed on the wire. A single-lead window is the group
  /// of one: one packet with lead tag 0, the classic stream.
  std::vector<Packet> encode_group(std::span<const std::int16_t> xs_flat);

  /// encode_group for a single-lead encoder, returning its one packet.
  /// CHECK-fails on a group-configured encoder (config().leads > 1).
  Packet encode_window(std::span<const std::int16_t> x);

  /// Forces the next packet to be absolute (e.g. after a reported loss).
  void request_keyframe() { force_keyframe_ = true; }

  /// Switches the stream to \p profile mid-session: rebuilds the sensing
  /// matrix and codebook, resets the difference chain and forces the next
  /// window to be a keyframe, so the switch lands exactly at a keyframe
  /// boundary. The sequence number continues — the announcement frame and
  /// the keyframe extend the same stream. Throws on an unrealisable
  /// profile (validate with StreamProfile::valid() first for wire input).
  void set_profile(const StreamProfile& profile);

  /// The active profile; nullopt when constructed from a bare
  /// EncoderConfig (v0 mode, nothing to announce).
  const std::optional<StreamProfile>& profile() const { return profile_; }

  /// Marks the active profile for (re-)announcement by the next
  /// take_profile_packet() (e.g. after the receiver reported state loss)
  /// and forces a keyframe, so a receiver that applies the re-announced
  /// profile can re-enter the difference chain immediately.
  void announce_profile() {
    if (profile_.has_value()) {
      announce_pending_ = true;
      force_keyframe_ = true;
    }
  }

  /// The pending kProfile announcement frame, if any. It consumes a
  /// sequence number, so transmit (and ARQ-track) it like any frame,
  /// ahead of the window it precedes. Announcements are pull-based so v0
  /// sessions keep their seed-identical sequence numbering.
  std::optional<Packet> take_profile_packet();

  /// Resets all inter-packet state (new session).
  void reset();

  /// The most recent integer measurement vector (testing/diagnostics).
  std::span<const std::int32_t> last_measurements() const {
    return previous_y_;
  }

  /// RAM the encoder state occupies on the mote (measurement buffers,
  /// previous-vector store); flash cost is the matrix + codebook.
  std::size_t ram_bytes() const;
  std::size_t flash_bytes() const;

 private:
  /// Stage 1 for one lead: fills current_y_ with the projected (and
  /// optionally shifted) integer measurements of \p x, charging the
  /// MSP430 cycle model. The PRNG restart inside makes repeated calls see
  /// the same Phi — the lead-group invariant.
  void project_window(std::span<const std::int16_t> x,
                      std::uint16_t sequence);
  /// Stages 2+3 for one lead: serialises current_y_ as an absolute or
  /// (against \p previous) differential payload into \p writer.
  void write_absolute(coding::BitWriter& writer, std::uint16_t sequence);
  void write_differential(std::span<const std::int32_t> previous,
                          coding::BitWriter& writer, std::uint16_t sequence);

  EncoderConfig config_;
  SensingMatrix sensing_;
  coding::HuffmanCodebook codebook_;
  std::vector<std::int32_t> current_y_;
  /// One difference-chain reference per lead: leads * measurements,
  /// lead-major (a single-lead encoder uses row 0 only).
  std::vector<std::int32_t> previous_y_;
  std::vector<std::int32_t> diff_scratch_;  ///< y_t - y_{t-1} staging
  std::vector<std::int32_t> zero_scratch_;  ///< constant zero reference
  std::uint16_t sequence_ = 0;
  std::size_t packets_since_keyframe_ = 0;
  bool have_previous_ = false;
  bool force_keyframe_ = false;
  std::optional<StreamProfile> profile_;
  bool announce_pending_ = false;
};

}  // namespace csecg::core

#endif  // CSECG_CORE_ENCODER_HPP
