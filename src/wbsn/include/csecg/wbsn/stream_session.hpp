#ifndef CSECG_WBSN_STREAM_SESSION_HPP
#define CSECG_WBSN_STREAM_SESSION_HPP

/// \file stream_session.hpp
/// The transmit side of one mote->coordinator stream, assembled.
///
/// Every harness that streams windows used to hand-wire the same block:
/// a SensorNode, a BluetoothLink, a thread-safe feedback queue, a
/// service-feedback loop relaying ARQ retransmissions back through the
/// link, and (v1) the profile-announcement and adaptive-CR plumbing.
/// StreamSession owns that block behind three calls:
///
///   session.on_feedback(msgs);          // any thread: receiver feedback
///   session.send_window(samples, sink); // encode + announce + transmit
///   while (!session.idle())             // tail drain
///     session.service_feedback(sink);
///
/// Delivered frames (post link-fault-injection) surface through the
/// caller's sink, so the same session drives a ring buffer, a fleet
/// submit() or a vector of frames. Constructed from a StreamProfile the
/// session is v1: the first send_window emits the in-band kProfile
/// announcement, and an enabled AdaptiveCrPolicy walks the CR ladder on
/// NACK pressure, re-profiling through the encoder at keyframe
/// boundaries. Constructed from an EncoderConfig + codebook it is v0:
/// byte-identical to the legacy hand-wired flow.

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/wbsn/adaptive_cr.hpp"
#include "csecg/wbsn/link.hpp"
#include "csecg/wbsn/node.hpp"

namespace csecg::wbsn {

struct StreamSessionConfig {
  LinkConfig link;
  ArqConfig arq;
  /// Loss-adaptive CR control; requires profile-driven construction
  /// (the switch must be announceable in-band).
  AdaptiveCrConfig adaptive;
  platform::Msp430Model model = {};
};

class StreamSession {
 public:
  /// Receives each frame the link delivered (faults already applied).
  using FrameSink = std::function<void(std::vector<std::uint8_t>)>;

  /// v1: in-band profile session.
  StreamSession(const core::StreamProfile& profile,
                const StreamSessionConfig& config = {});

  /// v0: legacy out-of-band config session (no announcements; adaptive
  /// CR must be disabled).
  StreamSession(const core::EncoderConfig& encoder_config,
                coding::HuffmanCodebook codebook,
                const StreamSessionConfig& config = {});

  SensorNode& node() { return node_; }
  BluetoothLink& link() { return link_; }
  const std::optional<core::StreamProfile>& profile() const {
    return node_.encoder().profile();
  }
  const AdaptiveCrStats& adaptive_stats() const { return adaptive_.stats(); }
  double current_cr() const { return adaptive_.current_cr(); }

  /// Thread-safe: queue coordinator feedback for the next service pass.
  /// Safe to call from a receive/worker thread while the owning thread
  /// is inside send_window.
  void on_feedback(const FeedbackMessage& message);
  void on_feedback(std::span<const FeedbackMessage> messages);

  /// Drains queued feedback through the ARQ transmitter and sends due
  /// retransmissions over the link. Returns true when any feedback was
  /// processed (the tail-drain loops key quietness off this).
  bool service_feedback(const FrameSink& sink);

  /// One stream step: service feedback, transmit the window's frames in
  /// SensorNode::process_window's wire order, then let the adaptive
  /// policy evaluate (a decided switch re-profiles the encoder; the
  /// announcement and keyframe go out with the next window).
  /// \p samples_flat packs the encoder's leads windows back to back
  /// (lead-major). Returns the number of frames the link delivered to
  /// \p sink.
  std::size_t send_window(std::span<const std::int16_t> samples_flat,
                          const FrameSink& sink);

  /// Forwards to send_window. Kept only because the benchmark's input
  /// encoder (perfbench/src/inputs.cpp) still calls it; delete it when
  /// that caller moves to send_window.
  std::size_t send_group_window(std::span<const std::int16_t> samples_flat,
                                const FrameSink& sink);

  /// Manual mid-stream re-profile (the adaptive path uses the same
  /// mechanism). v1 sessions only.
  void set_profile(const core::StreamProfile& profile);

  /// ARQ transmitter has nothing awaiting acknowledgement.
  bool idle() { return node_.arq().idle(); }

 private:
  std::size_t transmit(const std::vector<std::uint8_t>& frame,
                       const FrameSink& sink);

  StreamSessionConfig config_;
  SensorNode node_;
  BluetoothLink link_;
  AdaptiveCrPolicy adaptive_;
  std::mutex feedback_mutex_;
  std::vector<FeedbackMessage> pending_feedback_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_STREAM_SESSION_HPP
