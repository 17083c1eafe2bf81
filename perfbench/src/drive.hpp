#ifndef PERFBENCH_DRIVE_HPP
#define PERFBENCH_DRIVE_HPP

/// \file drive.hpp
/// Drives the system under test through its public entry points:
/// GatewayService::offer on the open-loop window schedule, or
/// FleetCoordinator::submit from one blocked uploader (closed loop).
/// Set-up (construction, registration, paced first contact) is repeated
/// and timed separately from the measured phase.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csecg/wbsn/fleet.hpp"
#include "csecg/wbsn/gateway.hpp"
#include "inputs.hpp"
#include "probe.hpp"

namespace perfbench {

/// What the sink saw for one window slot of one node.
struct WindowOutcome {
  bool delivered = false;
  bool concealed = false;
  std::uint8_t leads_seen = 0;
  double delivery_s = 0.0;  ///< seconds after the measured-phase epoch
  double decode_s = 0.0;    ///< FleetWindow::decode_seconds
  std::size_t iterations = 0;
};

/// Per-node storage the sink and the generator write into. Allocated
/// and touched before the run, so recording allocates nothing and does
/// not count as the system's memory.
struct NodeRecord {
  std::vector<WindowOutcome> windows;
  std::vector<float> samples;  ///< slots x leads x N
  std::vector<wbsn::FeedbackMessage> feedback;
  std::vector<double> offer_begin_s;  ///< per arrival (measured phase)
  std::vector<double> offer_end_s;
};

std::vector<NodeRecord> allocate_records(const Inputs& inputs);

/// A harness span: one call into the system, keyed by (node, sequence).
struct Span {
  const char* name = "";
  std::uint32_t node = 0;
  std::uint32_t sequence = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
};

struct DriveResult {
  // Set-up, one entry per repetition.
  std::vector<double> setup_s;
  std::vector<double> register_s;
  std::vector<double> warmup_s;
  double rss_per_node_kib = 0.0;  ///< registration growth, first set-up
  // Measured phase.
  double wall_s = 0.0;  ///< epoch to last delivery
  double cpu_s = 0.0;   ///< process user+sys over the same span
  double rss_peak_mib = 0.0;
  std::vector<double> late_ms;    ///< generator lateness per send
  std::vector<double> ingest_us;  ///< time inside offer()/submit()
  std::size_t refused = 0;        ///< offers not admitted
  /// Concealments finish() delivered for already-delivered windows (see
  /// NodeInput::stale_concealments).
  std::size_t stale_concealments = 0;
  bool timed_out = false;
  std::uint64_t allocations = 0;  ///< heap allocations in the phase
  std::vector<Span> spans;        ///< traced runs only
  bool gateway = false;
  wbsn::GatewayReport gateway_report;
  wbsn::FleetReport fleet_report;
};

/// Runs \p setups set-ups (the last one survives) and the measured
/// phase. \p traced records offer/submit spans and counts allocations.
DriveResult drive(const Inputs& inputs, std::vector<NodeRecord>& records,
                  std::size_t setups, bool traced);

/// Due time of \p slot (>= 1) of \p node, seconds after the epoch, on
/// the open-loop schedule.
double due_s(const NodeInput& node, std::size_t slot);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_HPP
