// The paper's Fig 8 scenario as a runnable simulation: a Shimmer-class
// sensor node streams CS-compressed ECG over a (modelled) Bluetooth link
// to a coordinator that reconstructs and "displays" it in real time,
// using the three-thread producer/consumer pipeline of §IV-B1.
//
//   $ ./monitor_pipeline [record-index] [loss-rate] [mean-burst-frames]
//                        [bit-error-rate] [max-retries] [trace.jsonl]
//                        [--backend reference|native]
//
// --backend (default native) picks the kernel set the coordinator's
// FISTA reconstruction runs through; the choice is echoed in the
// coordinator summary.
//
// loss-rate/mean-burst-frames parameterise the Gilbert–Elliott burst
// channel, bit-error-rate flips wire bits (caught by the CRC trailer) and
// max-retries bounds the NACK-driven ARQ. Renders a strip of the
// reconstructed ECG as ASCII art and prints the node/coordinator/
// robustness statistics the paper reports, followed by the telemetry
// summary from the attached observability session. An optional sixth
// argument dumps that session as JSONL (replayable with
// `csecg_tool metrics --trace <file>`).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "csecg/core/stream_profile.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/obs/export.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/wbsn/pipeline.hpp"

namespace {

/// Draws samples as a rotated ASCII strip (amplitude -> column).
void render_strip(const std::vector<std::int16_t>& samples,
                  std::size_t begin, std::size_t count, std::size_t step) {
  constexpr int kWidth = 64;
  std::int16_t lo = 32767;
  std::int16_t hi = -32768;
  for (std::size_t i = begin; i < begin + count; ++i) {
    lo = std::min(lo, samples[i]);
    hi = std::max(hi, samples[i]);
  }
  const double span = std::max(1, hi - lo);
  for (std::size_t i = begin; i < begin + count; i += step) {
    const int column = static_cast<int>((samples[i] - lo) / span *
                                        (kWidth - 1));
    std::string line(static_cast<std::size_t>(kWidth), ' ');
    line[static_cast<std::size_t>(column)] = '*';
    std::printf("  |%s|\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csecg;
  // Pull the one --flag pair out first; everything else is positional.
  const linalg::Backend* backend = &linalg::native_backend();
  {
    std::vector<char*> positional(argv, argv + argc);
    for (std::size_t i = 1; i + 1 < positional.size(); ++i) {
      if (std::string(positional[i]) == "--backend") {
        backend = linalg::backend_by_name(positional[i + 1]);
        if (backend == nullptr) {
          std::fprintf(stderr, "--backend must be reference|native\n");
          return 2;
        }
        positional.erase(positional.begin() + static_cast<long>(i),
                         positional.begin() + static_cast<long>(i) + 2);
        break;
      }
    }
    argc = static_cast<int>(positional.size());
    std::copy(positional.begin(), positional.end(), argv);
  }
  const std::size_t record_index =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 0;
  const double loss_rate = argc > 2 ? std::atof(argv[2]) : 0.0;
  const double mean_burst = argc > 3 ? std::atof(argv[3]) : 1.0;
  const double bit_error_rate = argc > 4 ? std::atof(argv[4]) : 0.0;
  const std::size_t max_retries =
      argc > 5 ? static_cast<std::size_t>(std::atoi(argv[5])) : 3;
  const char* trace_path = argc > 6 ? argv[6] : nullptr;

  std::printf("Generating the synthetic corpus...\n");
  ecg::DatabaseConfig db_config;
  db_config.record_count = std::max<std::size_t>(record_index + 1, 4);
  db_config.duration_s = 30.0;
  const ecg::SyntheticDatabase db(db_config);
  const auto& record = db.mote(record_index);

  // The paper's CR = 50 operating point as a v1 stream profile: the
  // coordinator side of the pipeline learns geometry, seed, wavelet and
  // codebook id entirely from the in-band kProfile announcement — the
  // deployable configuration, where nothing but the radio link connects
  // the two devices. (Per-corpus trained codebooks have no wire id,
  // which is why the profile pins the shared default difference book.)
  const core::StreamProfile profile = core::profile_for_cr(50.0);

  wbsn::PipelineConfig pipe;
  pipe.link.loss_rate = loss_rate;
  pipe.link.mean_burst_frames = std::max(1.0, mean_burst);
  pipe.link.bit_error_rate = bit_error_rate;
  pipe.arq.max_retries = max_retries;
  pipe.backend = backend;
  obs::Session session;
  pipe.obs = &session;
  wbsn::RealTimePipeline pipeline(profile, pipe);

  std::printf("Streaming %s (%.0f s of ECG) through the WBSN pipeline%s\n",
              record.id.c_str(), record.duration_s(),
              loss_rate > 0.0 || bit_error_rate > 0.0
                  ? " with injected channel faults"
                  : "");
  const auto report = pipeline.run(record);

  std::printf("\n--- node (Shimmer / MSP430 model) ---\n");
  std::printf("windows encoded      : %zu\n", report.node.windows_encoded);
  std::printf("mean encode time     : %.1f ms per 2-s window\n",
              report.node.mean_encode_seconds() * 1e3);
  std::printf("node CPU usage       : %.2f %%  (paper: < 5 %%)\n",
              report.node_cpu_usage * 100.0);

  std::printf("\n--- link (Bluetooth model) ---\n");
  std::printf("frames sent / lost   : %zu / %zu (%zu corrupted, "
              "%zu loss bursts)\n",
              report.link.frames_sent, report.link.frames_lost,
              report.link.frames_corrupted, report.link.loss_bursts);
  std::printf("payload              : %zu bits (%.1f %% of raw)\n",
              report.link.payload_bits,
              100.0 * static_cast<double>(report.link.payload_bits) /
                  static_cast<double>(report.windows_input * 512 * 11));
  std::printf("airtime / TX energy  : %.3f s / %.3f J\n",
              report.link.airtime_s, report.link.tx_energy_j);

  std::printf("\n--- coordinator (iPhone / Cortex-A8 model) ---\n");
  std::printf("decode backend       : %s\n", backend->name());
  std::printf("windows reconstructed: %zu (displayed %zu, overruns %zu)\n",
              report.coordinator.windows_reconstructed,
              report.windows_displayed, report.display_overruns);
  std::printf("mean FISTA iterations: %.0f\n",
              report.coordinator.mean_iterations());
  std::printf("coordinator CPU      : %.1f %%  (paper: 17.7 %% at CR 50)\n",
              report.coordinator_cpu_usage * 100.0);
  std::printf("mean PRD (clean)     : %.2f %%\n", report.mean_prd);
  std::printf("host wall time       : %.2f s for %.0f s of ECG\n",
              report.wall_seconds,
              static_cast<double>(report.windows_input) * 2.0);

  std::printf("\n--- transport robustness (CRC + NACK-driven ARQ) ---\n");
  std::printf("corrupt rejected     : %zu frames (CRC-16 trailer)\n",
              report.windows_corrupt_rejected);
  std::printf("retransmissions      : %zu (keyframes forced: %zu)\n",
              report.retransmissions, report.keyframes_forced);
  std::printf("windows recovered    : %zu (mean repair latency %.1f s)\n",
              report.arq_rx.windows_recovered,
              report.mean_recovery_latency_s);
  std::printf("windows concealed    : %zu of %zu displayed\n",
              report.windows_concealed, report.windows_displayed);
  std::printf("profiles applied     : %zu (in-band kProfile frames)\n",
              report.profiles_applied);

  std::printf("\n--- real-time budget (2 s per window) ---\n");
  std::printf("decode latency       : p50 %.1f ms  p95 %.1f ms  "
              "p99 %.1f ms  max %.1f ms\n",
              report.latency_p50_s * 1e3, report.latency_p95_s * 1e3,
              report.latency_p99_s * 1e3, report.latency_max_s * 1e3);
  std::printf("deadline misses      : %zu / %zu (%.2f %%)\n",
              report.deadline_misses, report.latency_windows,
              report.deadline_miss_rate * 100.0);

  std::printf("\n--- telemetry (obs session) ---\n");
  obs::render_summary(session, std::cout);
  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    if (out) {
      obs::export_jsonl(session, out);
      std::printf("\nJSONL trace written to %s "
                  "(replay: csecg_tool metrics --trace %s)\n",
                  trace_path, trace_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path);
    }
  }

  std::printf("\nECG strip (original record, 1.5 s around a beat):\n");
  const std::size_t start =
      record.beat_onsets.size() > 2 ? record.beat_onsets[1] - 64 : 0;
  render_strip(record.samples, start, 384, 8);
  return 0;
}
