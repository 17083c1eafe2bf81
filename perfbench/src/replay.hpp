#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

/// \file replay.hpp
/// Single-thread replay of each node's exact receive-event order through
/// a standalone core::Decoder with the workload's configuration. It is
/// both the correctness oracle (every replayed window must match the
/// system's delivery bit for bit, concealments included) and, in the
/// traced run, the per-layer probe: parse, entropy decode, lambda
/// calibration, reconstruct and IDWT are timed around their public
/// calls, and for a sample of windows the per-iteration kernels are
/// timed in isolation at the workload's panel width.

#include <cstddef>
#include <string>
#include <vector>

#include "drive.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Per-layer samples the traced replay collects. Times are per row
/// (per lead window) unless noted.
struct LayerSamples {
  std::vector<double> parse_us;
  std::vector<double> entropy_us;
  std::vector<double> lambda_us;
  std::vector<double> reconstruct_ms;
  std::vector<double> idwt_us;
  std::vector<double> iterations;  ///< per solve (a group solves once)
  std::size_t solves = 0;
  std::size_t warm_solves = 0;
  // Kernel samples, per row at the workload's panel width.
  std::vector<double> phi_us;
  std::vector<double> phit_us;
  std::vector<double> synthesis_us;
  std::vector<double> analysis_us;
  std::vector<double> shrink_us;
  /// Share of a sampled solve's reconstruct time not explained by
  /// iterations x kernels, lambda and IDWT, percent.
  std::vector<double> bookkeeping_pct;
  /// Production decode path time (parse + entropy + reconstruct).
  double decode_path_s = 0.0;
  std::size_t decoded_windows = 0;
  std::vector<Span> spans;
};

struct ReplayCheck {
  std::size_t windows = 0;     ///< window slots compared
  std::size_t mismatches = 0;
  std::string first_mismatch;
};

/// Replays \p nodes and compares against \p records. \p layers non-null
/// turns on the per-layer timing.
ReplayCheck replay(const Inputs& inputs, const std::vector<NodeRecord>& records,
                   const std::vector<std::size_t>& nodes,
                   LayerSamples* layers);

/// Modelled Cortex-A8 cycles per decoded measured window: the replay of
/// \p nodes (in order, up to a fixed window count) through a
/// CountingBackend over the native kernels, priced by
/// platform::CortexA8Model.
double a8_mcycles_per_window(const Inputs& inputs,
                             const std::vector<std::size_t>& nodes);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_HPP
