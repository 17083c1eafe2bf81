#include "csecg/wbsn/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

// The decoder routes its kernels through counting_, and its operators
// point at its own members: neither survives a move.
static_assert(!std::is_move_constructible_v<Coordinator>);

Coordinator::Coordinator(const core::DecoderConfig& config,
                         coding::HuffmanCodebook codebook,
                         platform::CortexA8Model model)
    : decoder_(config, std::move(codebook)), model_(model) {
  set_backend(decoder_.backend());
}

Coordinator::Coordinator(const core::StreamProfile& profile,
                         platform::CortexA8Model model)
    : decoder_(profile), model_(model) {
  set_backend(decoder_.backend());
}

void Coordinator::set_backend(const linalg::Backend& backend) {
  counting_.emplace(backend);
  decoder_.set_backend(*counting_);
}

void Coordinator::set_prior_policy(const core::PriorPolicy& policy) {
  decoder_.set_prior_policy(policy);
}

Coordinator::FrameResult Coordinator::consume_frame(
    std::span<const std::uint8_t> frame, std::vector<float>& window) {
  ++stats_.frames_received;
  if (packets_.empty()) {
    packets_.resize(1);
  }
  if (!core::Packet::parse_into(frame, packets_[0])) {
    return reject(1);
  }
  return consume_packets(std::span<const core::Packet>(packets_.data(), 1),
                         /*group=*/false, window);
}

Coordinator::FrameResult Coordinator::consume_group(
    std::span<const std::vector<std::uint8_t>> frames,
    std::vector<float>& windows_flat) {
  stats_.frames_received += frames.size();
  if (packets_.size() < frames.size()) {
    packets_.resize(frames.size());
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!core::Packet::parse_into(frames[i], packets_[i])) {
      // One bad frame sinks the whole group: nothing decodes, so every
      // frame of it counts as rejected.
      return reject(frames.size());
    }
  }
  return consume_packets(
      std::span<const core::Packet>(packets_.data(), frames.size()),
      /*group=*/true, windows_flat);
}

Coordinator::FrameResult Coordinator::reject(std::size_t frames) {
  stats_.frames_rejected += frames;
  obs::add("coordinator.frames.rejected");
  return FrameResult::kRejected;
}

Coordinator::FrameResult Coordinator::consume_packets(
    std::span<const core::Packet> packets, bool group,
    std::vector<float>& windows_flat) {
  if (packets.empty()) {
    return reject(0);
  }
  if (packets.size() == 1 && packets[0].kind == core::PacketKind::kProfile) {
    // Profiles ride their own un-tagged frame ahead of any group.
    if (decoder_.consume(packets[0], y_scratch_) !=
        FrameResult::kProfileApplied) {
      return reject(1);
    }
    ++stats_.profiles_applied;
    obs::add("coordinator.profiles.applied");
    if (last_window_.size() != display_samples()) {
      // The concealment reference is in the old geometry; dropping it
      // falls back to the honest flat line until the first window lands.
      last_window_.clear();
    }
    return FrameResult::kProfileApplied;
  }

  obs::SpanScope span(group ? "window.decode.group" : "window.decode",
                      packets[0].sequence);
  if (group) {
    span.attribute("leads", static_cast<double>(packets.size()));
  }
  linalg::OpCounterScope scope;
  const auto start = std::chrono::steady_clock::now();
  const auto windows = decoder_.decode_group<float>(packets);
  const auto stop = std::chrono::steady_clock::now();
  if (!windows) {
    return reject(packets.size());
  }

  const auto& ops = scope.counts();
  stats_.ops_total += ops;
  stats_.modelled_seconds_total += model_.seconds(ops);
  stats_.host_seconds_total +=
      std::chrono::duration<double>(stop - start).count();
  // One group = one schedulable unit = one joint solve: the stats count
  // it once, so cpu_usage keeps its per-window-period meaning.
  stats_.iterations_total +=
      static_cast<double>(windows->front().iterations);
  ++stats_.windows_reconstructed;
  span.attribute("iterations",
                 static_cast<double>(windows->front().iterations));
  span.attribute("modelled_seconds", model_.seconds(ops));
  obs::observe("coordinator.decode.modelled_seconds", model_.seconds(ops));

  const std::size_t n = decoder_.config().cs.window;
  windows_flat.resize(windows->size() * n);
  for (std::size_t l = 0; l < windows->size(); ++l) {
    std::copy((*windows)[l].samples.begin(), (*windows)[l].samples.end(),
              windows_flat.begin() + static_cast<std::ptrdiff_t>(l * n));
  }
  last_window_ = windows_flat;
  return FrameResult::kWindow;
}

std::vector<float> Coordinator::conceal_hold_last() {
  // The concealed slot breaks the decode chain: the next window's true
  // predecessor was never reconstructed, so the warm prior must not
  // survive into it.
  decoder_.invalidate_prior();
  ++stats_.windows_concealed;
  obs::add("coordinator.windows.concealed");
  if (!last_window_.empty()) {
    return last_window_;
  }
  // Nothing decoded yet: a flat line is the honest "no signal" display —
  // one per lead on a group stream (the group conceals whole).
  return std::vector<float>(display_samples(), 0.0f);
}

std::size_t Coordinator::display_samples() const {
  const auto& cs = decoder_.config().cs;
  return cs.window * std::max<std::size_t>(1, cs.leads);
}

std::vector<float> Coordinator::conceal_interpolated(
    std::span<const float> prev, std::span<const float> next, std::size_t k,
    std::size_t gap) {
  CSECG_CHECK(gap > 0 && k < gap, "interpolation index out of range");
  decoder_.invalidate_prior();
  ++stats_.windows_concealed;
  obs::add("coordinator.windows.concealed");
  if (prev.empty() || prev.size() != next.size()) {
    return std::vector<float>(next.begin(), next.end());
  }
  const float alpha = static_cast<float>(k + 1) /
                      static_cast<float>(gap + 1);
  std::vector<float> window(next.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    window[i] = prev[i] + (next[i] - prev[i]) * alpha;
  }
  return window;
}

double Coordinator::cpu_usage(double packet_period_s) const {
  CSECG_CHECK(packet_period_s > 0.0, "packet period must be positive");
  if (stats_.windows_reconstructed == 0) {
    return 0.0;
  }
  return stats_.modelled_seconds_total /
         (static_cast<double>(stats_.windows_reconstructed) *
          packet_period_s);
}

}  // namespace csecg::wbsn
