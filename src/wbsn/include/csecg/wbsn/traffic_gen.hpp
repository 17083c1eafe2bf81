#ifndef CSECG_WBSN_TRAFFIC_GEN_HPP
#define CSECG_WBSN_TRAFFIC_GEN_HPP

/// \file traffic_gen.hpp
/// Deterministic fleet traffic model and the CRC-validated soak harness.
///
/// A registered population of up to ~1M nodes cannot each own an
/// encoder: the model instead pre-encodes a small set of streams — one
/// per (ECG record, stream profile) combination — and every node replays
/// one of them through a private cursor. Per-node state is a few bytes,
/// so the population is limited by how many nodes *connect* (decode
/// state materialises lazily on first contact), not by how many exist.
///
/// Arrivals are duty-cycled and bursty: nodes belong to clusters that
/// share a connect phase (plus per-node jitter), so whole clusters wake
/// together — the arrival pattern that actually stresses an admission
/// controller, unlike a uniform trickle. Everything is a pure function
/// of (config, node, tick): no RNG state, no wall clock, re-runnable
/// bit-for-bit.
///
/// The harness validates every *delivered* reconstruction against a
/// golden CRC from a clean reference decode (same entry points the fleet
/// workers use, so a mismatch is a real divergence, not a tolerance
/// artefact). Windows repeat with the source record, y_t is decoded
/// exactly (the entropy stage is lossless) and FISTA is deterministic in
/// (y, profile, backend), so goldens are computed once per record window
/// and indexed modulo the record length. Concealed windows are
/// stand-ins, not decodes — they are counted, never CRC-checked.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "csecg/core/stream_profile.hpp"
#include "csecg/obs/export.hpp"
#include "csecg/wbsn/gateway.hpp"

namespace csecg::wbsn {

struct TrafficConfig {
  /// Registered population. Only nodes whose duty cycle fires inside the
  /// simulated span ever materialise gateway-side state.
  std::size_t nodes = 10000;
  /// Distinct pre-encoded streams; node i replays stream i % streams.
  std::size_t streams = 6;
  /// Synthetic MIT-BIH-like records to draw stream content from.
  std::size_t records = 3;
  /// Seconds of ECG per record; the stream loops this signal, so goldens
  /// repeat with period record_windows().
  double record_seconds = 16.0;
  /// Target compression ratios cycled across streams (percent).
  std::vector<double> crs = {50.0, 40.0, 30.0};
  /// Keyframe cadence baked into each stream's profile — the re-entry
  /// points the kDropToKeyframe tier relies on.
  std::size_t keyframe_interval = 16;
  /// Leads per node window. 1 keeps the classic single-lead streams;
  /// 2..StreamProfile::kMaxLeads pre-encodes StreamProfile-v2 lead
  /// groups (correlated database leads, one shared sensing seed): each
  /// window becomes leads frames under one wire sequence, offered
  /// back-to-back, decoded as one joint group solve.
  std::size_t leads = 1;
  /// Windows pre-encoded per stream; a node falls silent when its cursor
  /// reaches the end (replaying wire sequence numbers would be rejected
  /// as stale, as it should be).
  std::size_t windows_per_stream = 96;
  /// Nodes per burst cluster: a cluster shares its connect phase, so
  /// ~nodes/clusters nodes arrive together.
  std::size_t clusters = 64;
  /// Ticks connected per duty period (one frame is offered per connected
  /// tick), and the period itself.
  std::size_t duty_on = 32;
  std::size_t duty_period = 512;
  std::uint64_t seed = 2011;
};

/// One pre-encoded stream: data frames only. The stream profile is
/// handed to register_node() out of band instead of being announced on
/// the wire — a shed kProfile frame would shift every later window slot
/// by one and poison the golden index, and announcements add nothing
/// here since the harness owns both ends.
struct EncodedStream {
  core::StreamProfile profile;
  /// Group-major frame layout: window w occupies
  /// frames[w*leads .. (w+1)*leads), all carrying wire sequence w (one
  /// frame per window in the classic leads == 1 configuration).
  std::vector<std::vector<std::uint8_t>> frames;
  /// Golden CRC-16/CCITT over the float reconstruction, one entry per
  /// (record window, lead), lead-minor: window w / lead l checks against
  /// golden_crc[(w % record_windows) * leads + l].
  std::vector<std::uint16_t> golden_crc;
};

class TrafficModel {
 public:
  explicit TrafficModel(const TrafficConfig& config);

  const TrafficConfig& config() const { return config_; }
  const std::vector<EncodedStream>& streams() const { return streams_; }
  std::size_t record_windows() const { return record_windows_; }

  std::size_t stream_of(std::size_t node) const {
    return node % streams_.size();
  }
  /// Pure function of (config, node, tick): whether \p node offers a
  /// frame this tick.
  bool connected(std::size_t node, std::size_t tick) const;

 private:
  TrafficConfig config_;
  std::vector<EncodedStream> streams_;
  std::size_t record_windows_ = 0;
};

struct SoakConfig {
  TrafficConfig traffic;
  GatewayConfig gateway;
  /// Phase A budget. Ticks [0, warmup/2) are unpaced cluster bursts —
  /// the shard queues overrun, the admission ladder climbs, sheds
  /// happen. Then paced recovery ticks run until the controller walks
  /// every shard back to kFullDecode (bounded; a stuck tier fails the
  /// gate), followed by a warm tail of ~warmup/2 paced full-decode
  /// ticks whose arrival band the steady phase replays.
  std::size_t warmup_ticks = 192;
  /// Inside warm-up, pin every shard at kDropToKeyframe for
  /// [warmup/4, warmup/2) so the tier-2 shed + keyframe re-entry path
  /// runs even if natural pressure never reaches it (CI determinism).
  bool force_shed_in_warmup = true;
  /// Phase B: drain-paced ticks replaying the warm tail's arrival band
  /// (cursors keep advancing — new frames, repeated arrival pattern), so
  /// only warm nodes are touched, nothing is shed and every window is
  /// fully decoded. The measured window for the allocation + CRC gates.
  std::size_t steady_ticks = 320;
  /// Queue occupancy the steady pacer waits for before offering.
  double steady_occupancy = 0.25;
  /// Invoked at the steady-phase boundaries, after the queues have fully
  /// drained (allocation-counter hooks go here).
  std::function<void()> on_steady_begin;
  std::function<void()> on_steady_end;
  /// Progress line sink (tick milestones); null = silent.
  std::function<void(const std::string&)> on_progress;
  /// Invoked after GatewayService::finish() with the gateway's obs
  /// session (counters merged, gateway.* written), before teardown —
  /// the JSONL-export window.
  std::function<void(obs::Session&)> on_session;

  // --- live telemetry (CSECG_OBS=ON builds; quietly inert under OFF) ---
  /// When set, an obs::Timeline watches every shard registry and streams
  /// epoch-diff JSONL here throughout the run. The stream must outlive
  /// run_soak. Sampling is allocation-free once warm, so it stays on
  /// through the measured steady phase.
  std::ostream* timeline_out = nullptr;
  /// Ticks between timeline samples (phase boundaries always sample).
  std::size_t timeline_interval_ticks = 16;
  /// When set, shard flight recorders dump anomaly windows here as
  /// JSONL (each dump prefixed by a {"type":"flight_dump","shard":S}
  /// line). The forced warm-up tier-2 slice guarantees at least one
  /// tier_escalate trigger. Dumps are disarmed across the measured
  /// steady phase (rendering allocates); events still record.
  std::ostream* flight_out = nullptr;
};

struct SoakResult {
  GatewayReport report;

  // Harness-side ledger (offer outcomes counted at the call site).
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed_dropped = 0;
  std::size_t shed_queue_full = 0;
  /// Offers refused in phase B because the node had never connected
  /// during warm-up (registering it would allocate) or its stream was
  /// exhausted. Not sent, not counted in offered.
  std::size_t steady_skipped = 0;

  // Sink-side ledger.
  std::size_t delivered_decoded = 0;
  std::size_t delivered_concealed = 0;
  std::size_t crc_checked = 0;
  std::size_t crc_mismatches = 0;
  /// Concealments standing in for frames shed at ingest
  /// (= concealed - shed_concealed - rejected, bounded by the shed count).
  std::size_t gap_concealments = 0;

  std::size_t nodes_registered = 0;  ///< materialised (ever-connected)
  std::size_t steady_offered = 0;    ///< offers inside the measured phase
  std::size_t steady_delivered = 0;
  double wall_seconds = 0.0;

  std::vector<obs::SloRow> slo;
  /// Human-readable broken invariants; empty == every gate held.
  std::vector<std::string> failures;

  bool passed() const { return failures.empty(); }
};

/// Runs the soak: warm-up (bursty overload, forced tier-2 slice,
/// recovery) then a drain-paced steady phase, finishes the gateway and
/// checks every accounting identity:
///
///   offered == admitted + shed_dropped + shed_queue_full   (per shard)
///   admitted == decoded + shed_concealed + rejected        (clean gen:
///                                        no corrupt frames, no dups)
///   delivered == decoded + concealed                       (sink count)
///   0 <= gap_concealments <= shed_dropped + shed_queue_full
///   crc_mismatches == 0, steady phase offers > 0 and sheds == 0,
///   queue_high_water <= queue_depth
SoakResult run_soak(const SoakConfig& config);

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_TRAFFIC_GEN_HPP
