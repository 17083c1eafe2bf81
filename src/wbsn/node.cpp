#include "csecg/wbsn/node.hpp"

#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

SensorNode::SensorNode(const core::EncoderConfig& config,
                       coding::HuffmanCodebook codebook,
                       platform::Msp430Model model,
                       const ArqConfig& arq)
    : encoder_(config, std::move(codebook)), model_(model), arq_(arq) {}

SensorNode::SensorNode(const core::StreamProfile& profile,
                       platform::Msp430Model model, const ArqConfig& arq)
    : encoder_(profile), model_(model), arq_(arq) {}

std::vector<std::vector<std::uint8_t>> SensorNode::process_window(
    std::span<const std::int16_t> samples_flat) {
  if (arq_.consume_keyframe_request()) {
    encoder_.request_keyframe();
    // v1 streams also re-announce the profile: an ARQ give-up may have
    // taken the session's kProfile frame with it, and without the
    // geometry the receiver can never decode the re-sync keyframe.
    encoder_.announce_profile();
    ++stats_.keyframes_forced;
  }

  std::vector<std::vector<std::uint8_t>> frames;
  // The announcement precedes the window it governs, in sequence order.
  // It rides the same ARQ window as data: a NACKed profile frame is
  // retransmitted, and losing one permanently would strand the receiver
  // on stale geometry.
  if (const auto announcement = encoder_.take_profile_packet()) {
    frames.push_back(announcement->serialize());
    arq_.frame_sent(announcement->sequence, frames.back(), now());
  }

  const bool group = encoder_.config().leads > 1;
  // The encoder numbers windows consecutively from 0, so the count of
  // windows encoded so far is exactly the sequence this window will get.
  obs::SpanScope span(group ? "window.encode.group" : "window.encode",
                      stats_.windows_encoded);
  fixedpoint::Msp430CounterScope scope;
  const auto packets = encoder_.encode_group(samples_flat);
  const auto& ops = scope.counts();

  stats_.ops_total += ops;
  stats_.encode_seconds_total += model_.seconds(ops);
  // One group = one window of wall time = one ARQ clock tick, however
  // many leads ride it.
  ++stats_.windows_encoded;
  std::size_t window_bits = 0;
  for (const auto& packet : packets) {
    window_bits += packet.wire_bits();
  }
  stats_.payload_bits += window_bits;
  if (group) {
    span.attribute("leads", static_cast<double>(packets.size()));
  }
  span.attribute("keyframe",
                 packets.front().kind == core::PacketKind::kAbsolute ? 1.0
                                                                     : 0.0);
  span.attribute("payload_bits", static_cast<double>(window_bits));
  span.attribute("mote_seconds", model_.seconds(ops));
  obs::observe("node.encode.mote_seconds", model_.seconds(ops));

  for (const auto& packet : packets) {
    frames.push_back(packet.serialize());
    // Every lead's frame registers under the shared sequence: a NACK for
    // it marks them all, so the group retransmits together.
    arq_.frame_sent(packet.sequence, frames.back(), now());
  }
  return frames;
}

std::vector<std::vector<std::uint8_t>> SensorNode::handle_feedback(
    std::span<const FeedbackMessage> messages) {
  for (const auto& message : messages) {
    arq_.on_feedback(message, now());
  }
  return arq_.due_retransmissions(now());
}

double SensorNode::cpu_usage(double window_period_s) const {
  CSECG_CHECK(window_period_s > 0.0, "window period must be positive");
  if (stats_.windows_encoded == 0) {
    return 0.0;
  }
  return stats_.mean_encode_seconds() / window_period_s;
}

}  // namespace csecg::wbsn
