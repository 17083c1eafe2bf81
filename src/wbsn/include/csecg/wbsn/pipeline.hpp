#ifndef CSECG_WBSN_PIPELINE_HPP
#define CSECG_WBSN_PIPELINE_HPP

/// \file pipeline.hpp
/// The full threaded monitoring pipeline of §IV-B1: a producer thread
/// plays the sensor node (sense -> encode -> transmit), a consumer thread
/// plays the coordinator's Bluetooth/decode thread, and a display thread
/// drains the reconstructed ECG from the shared ring buffer, which is
/// sized to the paper's 6 seconds (2 s reading + 2 s writing + 2 s display
/// latency).
///
/// On top of the seed's fire-and-forget stream the pipeline now carries a
/// coordinator->node feedback channel (ACK/NACK, see arq.hpp): the
/// consumer thread drives one Coordinator (coordinator.hpp), the same
/// receiver the fleet runs per node, which verifies each frame's CRC,
/// reorders and NACKs gaps; the producer retransmits on NACK with
/// bounded retries; windows that stay unrecoverable are concealed on the
/// display instead of dropped, so the 2 s cadence never shows silent
/// corruption.

#include <cstdint>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/wbsn/arq.hpp"
#include "csecg/wbsn/coordinator.hpp"
#include "csecg/wbsn/link.hpp"
#include "csecg/wbsn/node.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace csecg::wbsn {

struct PipelineConfig {
  /// Playback pace: 1.0 runs in real time (one 2 s window every 2 s),
  /// 0.0 runs as fast as the machine allows (for tests and benches).
  double pace = 0.0;
  /// Display buffer depth in seconds (paper: 6 s).
  double display_buffer_seconds = 6.0;
  LinkConfig link;
  /// Retransmission policy; arq.enabled = false reproduces the seed's
  /// fire-and-forget link (lost windows simply never reach the display).
  ArqConfig arq;
  /// Loss-adaptive CR control (profile-driven pipelines only).
  AdaptiveCrConfig adaptive;
  /// How unrecoverable windows are painted.
  ConcealmentStrategy concealment = ConcealmentStrategy::kHoldLast;
  /// Kernel backend for the coordinator's decoder (a plain backend — the
  /// pipeline wraps it in a counting decorator for the cycle model).
  /// Null keeps the decoder config's choice (library default for
  /// profile-driven sessions). Must outlive the pipeline; the
  /// linalg::*_backend() singletons always do.
  const linalg::Backend* backend = nullptr;
  /// Optional observability session. When set it is attached to all three
  /// pipeline threads: stage spans and counters flow into its registry, a
  /// DeadlineMonitor watches per-window decode latency against the window
  /// period, and ring-buffer occupancy is exported as gauges. Null keeps
  /// the pipeline silent (facade calls become null-sinks).
  obs::Session* obs = nullptr;
};

struct PipelineReport {
  NodeStats node;
  CoordinatorStats coordinator;
  LinkStats link;
  ArqTxStats arq_tx;
  ArqRxStats arq_rx;
  std::size_t windows_input = 0;
  std::size_t windows_displayed = 0;
  /// Synthesised stand-ins: the coordinator's concealments plus the tail
  /// the pipeline fills up to windows_input (ARQ on).
  std::size_t windows_concealed = 0;
  std::size_t windows_corrupt_rejected = 0; ///< CRC failures at the coordinator
  std::size_t retransmissions = 0;
  std::size_t keyframes_forced = 0;         ///< ARQ-demanded re-syncs
  std::size_t profiles_applied = 0;         ///< in-band kProfile frames consumed
  AdaptiveCrStats adaptive;                 ///< CR controller outcomes
  std::size_t display_overruns = 0;  ///< decoder output dropped: buffer full
  double wall_seconds = 0.0;
  /// Mean PRD over *clean* (decoded, not concealed) windows that made it
  /// to the display, aligned by sequence number (percent).
  double mean_prd = 0.0;
  /// Mean NACK-to-repair latency for recovered windows, in seconds.
  double mean_recovery_latency_s = 0.0;
  double node_cpu_usage = 0.0;
  double coordinator_cpu_usage = 0.0;
  /// Host-clock decode latency per reconstructed (non-concealed) window:
  /// FleetWindow::decode_seconds, the reconstruct call alone (parsing
  /// and the entropy decode are not in it), as the fleet reports it.
  /// Always populated, with or without an observability session.
  std::size_t latency_windows = 0;
  double latency_min_s = 0.0;
  double latency_mean_s = 0.0;
  double latency_max_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  /// Deadline accounting: a window misses when its decode latency exceeds
  /// the window period (the paper's 2 s real-time budget).
  double deadline_budget_s = 0.0;
  std::size_t deadline_misses = 0;
  double deadline_miss_rate = 0.0;
  /// ARQ outcomes surfaced at the top level (previously only reachable
  /// through the nested arq_rx struct).
  std::size_t nacks_sent = 0;
  std::size_t windows_recovered = 0;
  std::size_t windows_abandoned = 0;
};

class RealTimePipeline {
 public:
  RealTimePipeline(const core::DecoderConfig& config,
                   coding::HuffmanCodebook codebook,
                   const PipelineConfig& pipeline_config = {});

  /// v1: profile-driven pipeline. The producer announces \p profile
  /// in-band; the consumer's coordinator starts from the same profile,
  /// as the fleet, the gateway and run_multi_lead register a v1 node,
  /// and the announcement re-applies it (counted in profiles_applied;
  /// losing it shifts no window's slot). Later announcements (adaptive
  /// CR) re-profile it mid-stream. Required for pipeline_config.adaptive.
  explicit RealTimePipeline(const core::StreamProfile& profile,
                            const PipelineConfig& pipeline_config = {});

  /// Streams every complete window of \p record through the three-thread
  /// pipeline and returns the aggregated report.
  PipelineReport run(const ecg::Record& record);

 private:
  core::DecoderConfig config_;                       ///< v0 mode only
  std::optional<coding::HuffmanCodebook> codebook_;  ///< v0 mode only
  PipelineConfig pipeline_config_;
  std::optional<core::StreamProfile> profile_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_PIPELINE_HPP
