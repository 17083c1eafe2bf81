#include "csecg/wbsn/stream_session.hpp"

#include "csecg/core/encoder.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

StreamSession::StreamSession(const core::StreamProfile& profile,
                             const StreamSessionConfig& config)
    : config_(config),
      node_(profile, config.model, config.arq),
      link_(config.link),
      adaptive_(config.adaptive) {}

StreamSession::StreamSession(const core::EncoderConfig& encoder_config,
                             coding::HuffmanCodebook codebook,
                             const StreamSessionConfig& config)
    : config_(config),
      node_(encoder_config, std::move(codebook), config.model, config.arq),
      link_(config.link),
      adaptive_(config.adaptive) {
  CSECG_CHECK(!config.adaptive.enabled,
              "adaptive CR needs a profile-driven (v1) session: the switch "
              "must be announceable in-band");
}

void StreamSession::on_feedback(const FeedbackMessage& message) {
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  pending_feedback_.push_back(message);
}

void StreamSession::on_feedback(std::span<const FeedbackMessage> messages) {
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  pending_feedback_.insert(pending_feedback_.end(), messages.begin(),
                           messages.end());
}

bool StreamSession::service_feedback(const FrameSink& sink) {
  std::vector<FeedbackMessage> messages;
  {
    std::lock_guard<std::mutex> lock(feedback_mutex_);
    messages.swap(pending_feedback_);
  }
  // The policy is only ever touched from the sending thread (here and in
  // send_window), so the counters need no lock of their own.
  if (adaptive_.enabled()) {
    for (const auto& message : messages) {
      adaptive_.on_feedback(message);
    }
  }
  const bool had_feedback = !messages.empty();
  for (const auto& frame : node_.handle_feedback(messages)) {
    transmit(frame, sink);
  }
  return had_feedback;
}

std::size_t StreamSession::send_window(
    std::span<const std::int16_t> samples_flat, const FrameSink& sink) {
  std::size_t delivered = 0;
  service_feedback(sink);
  for (const auto& frame : node_.process_window(samples_flat)) {
    delivered += transmit(frame, sink);
  }
  if (const auto cr = adaptive_.on_window_sent()) {
    // The policy decided a switch. Re-profiling forces the next window to
    // be a keyframe and queues the announcement that precedes it, so the
    // change lands exactly at a keyframe boundary.
    auto profile = node_.encoder().profile();
    CSECG_CHECK(profile.has_value(), "adaptive CR without a profile");
    core::StreamProfile next = *profile;
    next.measurements = core::measurements_for_cr(next.window, *cr);
    node_.set_profile(next);
  }
  return delivered;
}

std::size_t StreamSession::send_group_window(
    std::span<const std::int16_t> samples_flat, const FrameSink& sink) {
  return send_window(samples_flat, sink);
}

void StreamSession::set_profile(const core::StreamProfile& profile) {
  node_.set_profile(profile);
}

std::size_t StreamSession::transmit(const std::vector<std::uint8_t>& frame,
                                    const FrameSink& sink) {
  if (auto result = link_.transmit(frame)) {
    if (sink) {
      sink(std::move(*result));
    }
    return 1;
  }
  return 0;
}

}  // namespace csecg::wbsn
