#include "csecg/wbsn/pipeline.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "csecg/ecg/metrics.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"
#include "csecg/util/stats.hpp"
#include "csecg/wbsn/ring_buffer.hpp"

namespace csecg::wbsn {

namespace {

struct DisplayedWindow {
  std::uint16_t sequence = 0;
  bool concealed = false;  ///< synthesised stand-in, not a reconstruction
  std::vector<float> samples;
};

/// Stand-in k (0-based) of a gap of \p gap lost windows: a linear
/// cross-fade from \p prev (the last good window before the gap) towards
/// \p next (the first good window after it). A copy of \p next when
/// \p prev is empty or mismatched.
std::vector<float> cross_fade(std::span<const float> prev,
                              std::span<const float> next, std::size_t k,
                              std::size_t gap) {
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

}  // namespace

RealTimePipeline::RealTimePipeline(const core::DecoderConfig& config,
                                   coding::HuffmanCodebook codebook,
                                   const PipelineConfig& pipeline_config)
    : config_(config),
      codebook_(std::move(codebook)),
      pipeline_config_(pipeline_config) {
  CSECG_CHECK(!pipeline_config_.adaptive.enabled,
              "adaptive CR needs the profile-driven pipeline constructor");
}

RealTimePipeline::RealTimePipeline(const core::StreamProfile& profile,
                                   const PipelineConfig& pipeline_config)
    : pipeline_config_(pipeline_config), profile_(profile) {
  const char* reason = profile.invalid_reason();
  CSECG_CHECK(reason == nullptr, reason ? reason : "invalid stream profile");
}

PipelineReport RealTimePipeline::run(const ecg::Record& record) {
  const std::size_t n =
      profile_ ? profile_->window : config_.cs.window;
  CSECG_CHECK(record.samples.size() >= n, "record shorter than one window");
  CSECG_CHECK(record.sample_rate_hz > 0.0, "record needs a sample rate");

  const double window_period_s =
      static_cast<double>(n) / record.sample_rate_hz;
  const std::size_t window_count = record.samples.size() / n;
  const bool arq_on = pipeline_config_.arq.enabled;
  const bool interpolate =
      pipeline_config_.concealment == ConcealmentStrategy::kInterpolate;

  // The transmit side: node + link + feedback servicing behind one
  // object (profile announcements and adaptive CR included when v1).
  StreamSessionConfig session_config;
  session_config.link = pipeline_config_.link;
  session_config.arq = pipeline_config_.arq;
  session_config.adaptive = pipeline_config_.adaptive;
  std::optional<StreamSession> stream_storage;
  if (profile_) {
    stream_storage.emplace(*profile_, session_config);
  } else {
    stream_storage.emplace(config_.cs, *codebook_, session_config);
  }
  StreamSession& stream = *stream_storage;

  // The coordinator starts from the producer's wire contract: the v0
  // config and codebook the paper's fixed deployment shares
  // out-of-band, or the v1 profile, which the stream's own announcement
  // frame then re-applies. Its kernels (the configured ones, else the
  // v0 decoder's) run through a counting decorator so every reconstruct
  // is priced on the Cortex-A8 model; the decorator is declared first so
  // it outlives the decoder that points at it.
  const linalg::CountingBackend counting(
      pipeline_config_.backend != nullptr ? *pipeline_config_.backend
      : config_.backend != nullptr        ? *config_.backend
                                          : linalg::default_backend());
  std::optional<Coordinator> coordinator_storage;
  if (profile_) {
    coordinator_storage.emplace(*profile_, pipeline_config_.arq);
  } else {
    coordinator_storage.emplace(config_, *codebook_, pipeline_config_.arq);
  }
  Coordinator& coordinator = *coordinator_storage;
  coordinator.decoder().set_backend(counting);

  // Frame queue between the node and the coordinator thread. With ARQ the
  // depth doubles as flow control: the producer may run no more than one
  // retransmission window ahead, so NACKs still find the frame buffered.
  // Without ARQ it is sized generously, as in the fire-and-forget seed.
  // (+1 covers the v1 announcement frame sharing a window's slot.)
  const std::size_t frame_depth =
      arq_on ? std::max<std::size_t>(pipeline_config_.arq.tx_window, 2) + 1
             : window_count + 2;
  RingBuffer<std::vector<std::uint8_t>> frames(frame_depth);
  // Display buffer: the paper's 6 seconds of ECG, in whole windows. With
  // ARQ the buffer additionally absorbs recovery bursts — filling a gap
  // releases up to rx_reorder held windows at once.
  const auto display_windows =
      static_cast<std::size_t>(std::ceil(
          pipeline_config_.display_buffer_seconds / window_period_s)) +
      (arq_on ? pipeline_config_.arq.rx_reorder : 0);
  RingBuffer<DisplayedWindow> display(std::max<std::size_t>(1,
                                                            display_windows));

  PipelineReport report;
  report.windows_input = window_count;

  // Observability: the run() thread doubles as the display thread, so the
  // session is attached here and inside each worker lambda. The deadline
  // monitor exports live miss-rate metrics when a session is present; the
  // plain budget comparison below always feeds the report.
  obs::Session* const session = pipeline_config_.obs;
  obs::ScopedSession attach_display(session);
  std::optional<obs::DeadlineMonitor> deadline;
  if (session != nullptr) {
    deadline.emplace(session->registry(), window_period_s);
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // --- Producer: the sensor node (§IV-A) + ARQ retransmit half. ---
  std::thread producer([&] {
    obs::ScopedSession attach(session);
    const auto sink = [&](std::vector<std::uint8_t> frame) {
      frames.push(std::move(frame));
      obs::set("ring.frames.occupancy", static_cast<double>(frames.size()));
    };

    for (std::size_t w = 0; w < window_count; ++w) {
      stream.send_window(std::span<const std::int16_t>(
                             record.samples.data() + w * n, n),
                         sink);
      if (pipeline_config_.pace > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            window_period_s * pipeline_config_.pace));
      }
    }
    // Drain: keep answering NACKs until everything in flight is either
    // acknowledged or hopeless. Frames lost at the very tail (nothing
    // after them to expose the gap) cannot be NACKed; they are abandoned
    // here and concealed by the consumer's finish().
    std::size_t quiet_rounds = 0;
    for (std::size_t round = 0;
         arq_on && !stream.idle() && round < 20000; ++round) {
      if (stream.service_feedback(sink)) {
        quiet_rounds = 0;
      } else if (frames.size() == 0 && ++quiet_rounds >= 250) {
        break;  // consumer caught up and went silent: only tail losses left
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    frames.close();
  });

  std::size_t display_overruns = 0;
  std::size_t tail_concealed = 0;
  // Per-window decode latency on the host clock (consumer-thread local;
  // read by the main thread only after the join below).
  std::vector<double> decode_latencies;
  std::size_t deadline_misses = 0;

  // --- Consumer: the coordinator's Bluetooth + decode thread (§IV-B1). ---
  std::thread consumer([&] {
    obs::ScopedSession attach(session);
    solvers::SolverWorkspace workspace;
    std::size_t emitted = 0;  // slots are emitted contiguously from 0
    // Good window bracketing the current concealment gap (interpolation).
    std::vector<float> previous_good;
    std::vector<std::uint16_t> pending_lost;

    const auto emit = [&](std::uint16_t slot, std::vector<float> samples,
                          bool concealed) {
      ++emitted;
      DisplayedWindow window;
      window.sequence = slot;
      window.concealed = concealed;
      window.samples = std::move(samples);
      // The decode thread must never block on the display: count an
      // overrun instead (would be a dropped redraw on the phone).
      if (!display.try_push(window)) {
        ++display_overruns;
        obs::add("pipeline.display.overruns");
      } else {
        obs::set("ring.display.occupancy",
                 static_cast<double>(display.size()));
      }
    };
    // The last good reconstruction, or a flat line before the first.
    const auto hold_last = [&] {
      return previous_good.empty() ? std::vector<float>(n, 0.0f)
                                   : previous_good;
    };

    Coordinator::Wiring wiring;
    wiring.announced = profile_.has_value();
    // StreamSession::on_feedback is thread-safe, so it is the feedback
    // channel.
    wiring.feedback = [&](std::span<const FeedbackMessage> messages) {
      stream.on_feedback(messages);
    };
    wiring.deliver = [&](const FleetWindow& window) {
      if (window.concealed) {
        if (interpolate) {
          pending_lost.push_back(window.sequence);  // wait for the far bracket
        } else {
          emit(window.sequence,
               std::vector<float>(window.samples.begin(),
                                  window.samples.end()),
               true);
        }
        return;
      }
      decode_latencies.push_back(window.decode_seconds);
      const bool missed = deadline ? deadline->observe(window.decode_seconds)
                                   : window.decode_seconds > window_period_s;
      if (missed) {
        ++deadline_misses;
      }
      const std::size_t gap = pending_lost.size();
      for (std::size_t k = 0; k < gap; ++k) {
        emit(pending_lost[k], cross_fade(previous_good, window.samples, k, gap),
             true);
      }
      pending_lost.clear();
      previous_good.assign(window.samples.begin(), window.samples.end());
      emit(window.sequence, previous_good, false);
    };
    coordinator.wire(std::move(wiring));

    while (auto frame = frames.pop()) {
      coordinator.receive(std::move(*frame), workspace,
                          /*conceal_only=*/false);
    }
    coordinator.finish(workspace, /*conceal_only=*/false);
    // Gap still open at end of stream: no far bracket exists, fall back
    // to hold-last for whatever interpolation was waiting on.
    for (const std::uint16_t slot : pending_lost) {
      emit(slot, hold_last(), true);
    }
    // Windows whose every frame was lost or CRC-rejected past the last
    // parsed sequence are invisible to the ARQ receiver (it never learned
    // they exist). The pipeline knows the stream length, so conceal the
    // missing tail instead of truncating the display. Without ARQ the
    // fire-and-forget seed semantics (lost windows simply absent) apply.
    if (arq_on) {
      for (std::size_t s = emitted; s < window_count; ++s) {
        emit(static_cast<std::uint16_t>(s), hold_last(), true);
        ++tail_concealed;
      }
    }
    display.close();
  });

  // --- Display thread: drains the ring buffer and scores quality. ---
  double prd_sum = 0.0;
  std::size_t displayed = 0;
  std::size_t scored = 0;
  std::vector<double> original(n);
  std::vector<double> reconstructed(n);
  while (true) {
    auto window = display.pop();
    if (!window) {
      break;
    }
    const std::size_t w = window->sequence;
    if (w < window_count && window->samples.size() == n) {
      ++displayed;
      if (window->concealed) {
        continue;  // concealed windows are flagged, never scored as clean
      }
      obs::SpanScope prd_span("prd", window->sequence);
      for (std::size_t i = 0; i < n; ++i) {
        original[i] = static_cast<double>(record.samples[w * n + i]);
        reconstructed[i] = static_cast<double>(window->samples[i]);
      }
      const double prd = ecg::prd(original, reconstructed);
      prd_span.attribute("prd_percent", prd);
      obs::observe("display.prd.percent", prd);
      prd_sum += prd;
      ++scored;
    }
  }

  producer.join();
  consumer.join();

  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  report.node = stream.node().stats();
  report.link = stream.link().stats();
  report.arq_tx = stream.node().arq().stats();
  report.arq_rx = coordinator.arq_stats();
  report.coordinator = coordinator.stats();
  report.coordinator.windows_concealed += tail_concealed;
  report.coordinator_cpu_usage = coordinator.cpu_usage(window_period_s);
  report.windows_displayed = displayed;
  report.windows_concealed = report.coordinator.windows_concealed;
  report.windows_corrupt_rejected = report.coordinator.frames_corrupt;
  report.retransmissions = report.arq_tx.retransmissions;
  report.keyframes_forced = report.node.keyframes_forced;
  report.profiles_applied = report.coordinator.profiles_applied;
  report.adaptive = stream.adaptive_stats();
  report.display_overruns = display_overruns;
  report.mean_prd = scored == 0 ? 0.0
                                : prd_sum / static_cast<double>(scored);
  report.mean_recovery_latency_s =
      report.arq_rx.mean_recovery_latency_ticks() * window_period_s;
  report.node_cpu_usage = stream.node().cpu_usage(window_period_s);

  util::RunningStats latency_stats;
  util::PercentileTracker latency_pct;
  for (const double v : decode_latencies) {
    latency_stats.add(v);
    latency_pct.add(v);
  }
  report.latency_windows = latency_stats.count();
  if (latency_stats.count() > 0) {
    report.latency_min_s = latency_stats.min();
    report.latency_mean_s = latency_stats.mean();
    report.latency_max_s = latency_stats.max();
    report.latency_p50_s = latency_pct.percentile(50.0);
    report.latency_p95_s = latency_pct.percentile(95.0);
    report.latency_p99_s = latency_pct.percentile(99.0);
  }
  report.deadline_budget_s = window_period_s;
  report.deadline_misses = deadline_misses;
  report.deadline_miss_rate =
      report.latency_windows == 0
          ? 0.0
          : static_cast<double>(deadline_misses) /
                static_cast<double>(report.latency_windows);
  report.nacks_sent = report.arq_rx.nacks_sent;
  report.windows_recovered = report.arq_rx.windows_recovered;
  report.windows_abandoned = report.arq_rx.windows_abandoned;

  if (session != nullptr) {
    // Whole-run outcomes that no single instrumentation site can see.
    auto& registry = session->registry();
    registry.counter("pipeline.windows.input").add(window_count);
    registry.counter("pipeline.windows.displayed").add(displayed);
    registry.counter("pipeline.windows.concealed")
        .add(report.windows_concealed);
    registry.counter("pipeline.windows.corrupt_rejected")
        .add(report.windows_corrupt_rejected);
    registry.gauge("pipeline.wall_seconds").set(report.wall_seconds);
    registry.gauge("pipeline.mean_prd_percent").set(report.mean_prd);
    registry.gauge("pipeline.node.cpu_usage").set(report.node_cpu_usage);
    registry.gauge("pipeline.coordinator.cpu_usage")
        .set(report.coordinator_cpu_usage);
  }
  return report;
}

}  // namespace csecg::wbsn
