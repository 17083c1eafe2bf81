#ifndef CSECG_WBSN_NODE_HPP
#define CSECG_WBSN_NODE_HPP

/// \file node.hpp
/// The sensor-node role: sense a window, CS-encode it, frame it for the
/// link — with MSP430 cycle accounting so CPU usage and energy fall out.
/// The node also runs the transmit half of the NACK-driven ARQ: it keeps
/// a bounded buffer of recent frames, retransmits on NACK with bounded
/// retries and exponential backoff, and forces an encoder keyframe when
/// a frame has to be given up (so the difference chain re-synchronises
/// instead of stalling).

#include <cstdint>
#include <span>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/platform/msp430.hpp"
#include "csecg/wbsn/arq.hpp"

namespace csecg::wbsn {

struct NodeStats {
  std::size_t windows_encoded = 0;
  std::size_t payload_bits = 0;
  std::size_t keyframes_forced = 0;  ///< re-syncs demanded by the ARQ
  double encode_seconds_total = 0.0;  ///< modelled MSP430 busy time
  fixedpoint::Msp430OpCounts ops_total;

  double mean_encode_seconds() const {
    return windows_encoded == 0
               ? 0.0
               : encode_seconds_total / static_cast<double>(windows_encoded);
  }
};

class SensorNode {
 public:
  SensorNode(const core::EncoderConfig& config,
             coding::HuffmanCodebook codebook,
             platform::Msp430Model model = {},
             const ArqConfig& arq = {});

  /// Profile-driven construction (v1): geometry and codebook come from
  /// \p profile and the first process_window() opens with the in-band
  /// session announcement.
  explicit SensorNode(const core::StreamProfile& profile,
                      platform::Msp430Model model = {},
                      const ArqConfig& arq = {});

  core::Encoder& encoder() { return encoder_; }
  const core::Encoder& encoder() const { return encoder_; }
  ArqTransmitter& arq() { return arq_; }
  const ArqTransmitter& arq() const { return arq_; }
  const platform::Msp430Model& model() const { return model_; }

  /// Switches the stream to \p profile at the next window (which becomes
  /// a keyframe, announced ahead of it).
  void set_profile(const core::StreamProfile& profile) {
    encoder_.set_profile(profile);
  }

  /// Encodes one window and returns its frames in wire order, each
  /// registered with the ARQ retransmission buffer. \p samples_flat packs
  /// the encoder's leads ADC windows back to back (lead-major); a
  /// single-lead window is the group of one. Any pending kProfile
  /// announcement goes first, then one frame per lead under the window's
  /// shared sequence, which the ARQ retransmits as one unit. A pending
  /// ARQ give-up forces a keyframe and (v1/v2) re-announces the profile
  /// ahead of it: the announcement takes wire sequence k and the keyframe
  /// k + 1, so the receiver applies the profile before the keyframe
  /// restarts its difference chain. MSP430 cycle cost is accumulated into
  /// stats(), which count a group as one window.
  std::vector<std::vector<std::uint8_t>> process_window(
      std::span<const std::int16_t> samples_flat);

  /// Feeds coordinator feedback to the ARQ and returns the frames that
  /// are due for retransmission now (already framed; hand to the link).
  std::vector<std::vector<std::uint8_t>> handle_feedback(
      std::span<const FeedbackMessage> messages);

  /// Node CPU usage over everything processed so far (busy / wall time,
  /// assuming one window per 2 s).
  double cpu_usage(double window_period_s = 2.0) const;

  const NodeStats& stats() const { return stats_; }

 private:
  double now() const { return static_cast<double>(stats_.windows_encoded); }

  core::Encoder encoder_;
  platform::Msp430Model model_;
  ArqTransmitter arq_;
  NodeStats stats_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_NODE_HPP
