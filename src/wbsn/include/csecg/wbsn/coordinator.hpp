#ifndef CSECG_WBSN_COORDINATOR_HPP
#define CSECG_WBSN_COORDINATOR_HPP

/// \file coordinator.hpp
/// The WBSN-coordinator role (the iPhone, §IV-B) and the one receive
/// path of the system. A Coordinator terminates one sensor stream: it
/// takes the stream's link frames one at a time, checks each CRC,
/// reassembles lead groups, runs the receiver half of the ARQ (reorder,
/// NACK, abandon), Huffman-decodes each released window, rebuilds y_t,
/// reconstructs at 32-bit precision and hands every decoded or concealed
/// window, in sequence order, to its owner's callback. A window the ARQ
/// gives up on, or one that does not decode, is concealed by repeating
/// the last good reconstruction, so the display never shows garbage or
/// stalls.
///
/// Every receiver in the system is built on it: FleetCoordinator runs
/// one per node on its worker pool, RealTimePipeline one on its consumer
/// thread and run_multi_lead one per stream.
///
/// When the decoder's backend is a linalg::CountingBackend (the pipeline
/// and run_multi_lead install one), every reconstruct's op mix feeds the
/// Cortex-A8 cycle model, so CPU usage (§V: 17.7 % at CR = 50) falls
/// out. On a plain backend (the fleet) the modelled time stays zero.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/obs/flight_recorder.hpp"
#include "csecg/platform/cortex_a8.hpp"
#include "csecg/wbsn/arq.hpp"

namespace csecg::wbsn {

/// How an unrecoverable window is painted on the display.
enum class ConcealmentStrategy : std::uint8_t {
  kHoldLast = 0,     ///< repeat the last good window
  kInterpolate = 1,  ///< cross-fade between the bracketing good windows
};

/// One in-order delivery to the owner. \p samples points into receiver
/// scratch that is reused for the next window of the same stream:
/// consume or copy it inside the callback.
struct FleetWindow {
  std::uint32_t node_id = 0;
  /// The sender's input-window index: the wire sequence minus the
  /// kProfile frames the stream spent before it (see Wiring::announced),
  /// so sinks can align reconstructions with the original stream even
  /// on v1 sessions.
  std::uint16_t sequence = 0;
  /// The raw on-wire frame sequence this delivery answers. The gateway's
  /// end-to-end latency stamps are keyed by it (ingest sees only wire
  /// sequences; profile-offset slots are a decode-side notion).
  std::uint16_t wire_sequence = 0;
  bool concealed = false;  ///< synthesised stand-in, not a decode
  /// Host reconstruct time charged to this window's unit (0 if
  /// concealed): the wall time of the one reconstruct call that solved
  /// it, split evenly over the units that call solved — a decode_batch
  /// panel's windows share it, a lead group's leads all carry the whole
  /// group's. Parsing and the entropy decode are not included.
  double decode_seconds = 0.0;
  std::size_t iterations = 0;  ///< FISTA iterations (0 if concealed)
  /// Lead index within the stream's lead group (0 on single-lead
  /// streams). A group window delivers leads consecutive FleetWindows —
  /// same sequence, leads 0..L-1, all decoded or all concealed: the group
  /// is one schedulable unit, so leads never skew.
  std::uint8_t lead = 0;
  std::span<const float> samples;
};

/// The receive ledger of one stream. For clean in-order traffic without
/// duplicates every received frame lands in exactly one bucket:
///   received == leads*(reconstructed + shed_concealed) + profiles_applied
///               + rejected + corrupt + discarded
struct CoordinatorStats {
  std::size_t frames_corrupt = 0;   ///< CRC-rejected arrivals
  std::size_t frames_rejected = 0;  ///< CRC-clean but undecodable
  /// Lead-group frames dropped without a decode or reject of their own:
  /// siblings of a partial group whose sequence was abandoned (the gap
  /// concealment stands in for the whole group). Zero on single-lead
  /// streams.
  std::size_t frames_discarded = 0;
  /// Decoded units: one per single-lead window, one per lead group (the
  /// group is one joint solve).
  std::size_t windows_reconstructed = 0;
  std::size_t windows_concealed = 0;  ///< synthesised, not reconstructed
  /// Concealments forced by conceal_only (already included in
  /// windows_concealed): windows an admission controller shed.
  std::size_t windows_shed_concealed = 0;
  std::size_t profiles_applied = 0;  ///< in-band kProfile frames consumed
  double iterations_total = 0.0;
  double decode_seconds_total = 0.0;    ///< host reconstruct time
  double modelled_seconds_total = 0.0;  ///< Cortex-A8 model time
  linalg::OpCounts ops_total;           ///< counted reconstruct ops

  double mean_iterations() const {
    return windows_reconstructed == 0
               ? 0.0
               : iterations_total /
                     static_cast<double>(windows_reconstructed);
  }
};

/// One stream's receiver. Not thread-safe: one thread drives it at a
/// time (the fleet's scheduled flag guarantees this per node). Not
/// movable either: its decoder's operators point at its own members.
class Coordinator {
 public:
  /// Everything the owner plugs in, once, before the first frame.
  struct Wiring {
    /// Stamped on every FleetWindow and flight event.
    std::uint32_t node_id = 0;
    /// Single-lead windows reconstructed per solver call: decodable
    /// windows pend as rows of one panel until decode_batch are pending
    /// or the next non-window event (see FleetConfig::decode_batch). A
    /// lead group always solves alone.
    std::size_t decode_batch = 1;
    /// Every decoded or concealed window, in sequence order, one call
    /// per lead.
    std::function<void(const FleetWindow&)> deliver;
    /// ACK/NACK feedback for the stream's transmitter. Sent before any
    /// window the same frame releases is decoded.
    std::function<void(std::span<const FeedbackMessage>)> feedback;
    /// Takes back every frame buffer the receiver has finished with,
    /// capacity intact (see FleetConfig::frame_recycler). Empty = free it.
    std::function<void(std::vector<std::uint8_t>&&)> recycler;
    /// crc_mismatch, frame_rejected and profile_applied events land here
    /// when set.
    obs::FlightRecorder* flight = nullptr;
    /// The stream opens with its kProfile announcement at sequence 0, as
    /// a StreamSession built from a profile does: that sequence maps to
    /// no window even when the announcement is lost. Off for a profile
    /// registered out of band, as the fleet's nodes are.
    bool announced = false;
  };

  /// v0: the receiver shares \p config and \p codebook with the sender
  /// out of band, as the paper's fixed deployment does.
  Coordinator(const core::DecoderConfig& config,
              coding::HuffmanCodebook codebook, const ArqConfig& arq = {},
              platform::CortexA8Model model = {});

  /// v1/v2: the decoder starts from \p profile, the sender's announced
  /// wire contract; the stream's kProfile frames re-apply it (and any
  /// later one re-profiles the stream mid-flight).
  explicit Coordinator(const core::StreamProfile& profile,
                       const ArqConfig& arq = {},
                       platform::CortexA8Model model = {});

  void wire(Wiring wiring);

  /// The receiver's decoder: set its backend and prior policy here
  /// before the first frame.
  core::Decoder& decoder() { return decoder_; }

  /// Processes one raw link frame: CRC check, group assembly, the ARQ
  /// (its feedback goes out first), then every window the frame
  /// released is decoded — or, with \p conceal_only, entropy-decoded but
  /// concealed instead of reconstructed (the shed tier: the differential
  /// chain stays intact). Decoded single-lead windows may pend until
  /// decode_batch are ready; call flush() before handing the stream to
  /// another thread.
  void receive(std::vector<std::uint8_t> frame,
               solvers::SolverWorkspace& workspace, bool conceal_only);

  /// Reconstructs and delivers every pending window (no-op when none).
  void flush(solvers::SolverWorkspace& workspace);

  /// End of stream: the ARQ abandons its open gaps and releases what it
  /// holds, pending windows flush, then lead groups that never completed
  /// conceal whole, oldest first. Call once.
  void finish(solvers::SolverWorkspace& workspace, bool conceal_only);

  const CoordinatorStats& stats() const { return stats_; }
  const ArqRxStats& arq_stats() const { return arq_.stats(); }

  /// Decoder CPU usage under the Cortex-A8 model (reconstruction time per
  /// window over the 2 s window period). Zero unless the decoder's
  /// backend counts.
  double cpu_usage(double packet_period_s = 2.0) const;

 private:
  /// Group frames parked per sequence, ordered wrap-safely so the
  /// oldest is always first. SeqLess orders only keys spanning under
  /// half the sequence space, so an arrival first discards parked
  /// sequences kStaleDistance (about nine hours of 2 s windows) or more
  /// from it: they are from another lap and can never complete.
  using GroupFrames =
      std::map<std::uint16_t, std::vector<std::vector<std::uint8_t>>,
               SeqLess>;
  static constexpr int kStaleDistance = 1 << 14;

  /// Collects one data frame of a lead-group stream (leads > 1). The
  /// ArqReceiver tracks one buffer per sequence, so group frames park
  /// here and a completed group enters the ARQ as one placeholder unit
  /// under the shared sequence — ordering, NACKs and abandonment all
  /// stay per group window.
  void assemble_group(std::vector<std::uint8_t> frame);
  /// Drops (and recycles) any parked assembly of \p sequence, counting
  /// the stranded frames into frames_discarded.
  void discard_assembly(std::uint16_t sequence);
  /// Discards parked sequences kStaleDistance or more from \p sequence.
  void discard_stale(std::uint16_t sequence);
  /// Decodes, conceals or applies one in-order ARQ decision.
  void handle_event(ArqReceiver::Event& event,
                    solvers::SolverWorkspace& workspace, bool conceal_only);
  /// Delivers a stand-in for every lead of \p sequence and invalidates
  /// the warm prior.
  void conceal(std::uint16_t sequence, std::uint16_t wire_sequence);
  void recycle(std::vector<std::uint8_t>&& frame);
  void record(obs::FlightEventId id, std::uint64_t a1 = 0);

  core::Decoder decoder_;
  platform::CortexA8Model model_;
  Wiring wiring_;
  /// Lead-group width of the stream (1 = classic single-lead). Updated
  /// when an in-band re-profile changes it.
  std::size_t leads_;
  ArqReceiver arq_;
  ArqReceiver::Output out_;  ///< ARQ decisions, reused for every frame
  double ticks_ = 0.0;       ///< frames received: the ARQ clock
  /// kProfile frames consume wire sequence numbers but carry no window;
  /// subtracting the running count maps a frame's sequence back to the
  /// sender's input-window index. Zero on v0 streams. An announced
  /// stream counts its opening announcement up front and holds opening_
  /// until its first ARQ event (sequence 0: the announcement or its loss).
  std::uint16_t profile_slots_ = 0;
  bool opening_ = false;
  /// Parse target reused for every frame (payload capacity survives).
  core::Packet packet_;
  /// Group parse targets, one per lead, kept like packet_.
  std::vector<core::Packet> group_packets_;
  /// A group window's frames share one sequence, which the
  /// one-buffer-per-sequence ArqReceiver cannot hold, so data frames park
  /// in assembling_ (indexed by lead tag) until every lead arrived; the
  /// completed group moves to ready_groups_ and a placeholder enters the
  /// ARQ. Partial groups are repaired by the normal NACK path — the
  /// transmitter resends the whole group — and abandoned sequences
  /// conceal whole.
  GroupFrames assembling_;
  GroupFrames ready_groups_;
  // Decode scratch, reused every window (allocation-free once warm; the
  // caller's SolverWorkspace holds the solver half). A decodable unit —
  // a single-lead window or a whole lead group — entropy-decodes and
  // joins the pending rows until flush() reconstructs them: y_flat_
  // holds the integer measurement rows back to back (y_scratch_ stages
  // the second and later units of a batch), pending_slots_ and
  // pending_wires_ each unit's input-window index and wire sequence.
  // window_batch_ never shrinks, so a partial flush does not drop warmed
  // sample buffers.
  std::vector<std::int32_t> y_scratch_;
  std::vector<std::int32_t> y_flat_;
  std::vector<std::uint16_t> pending_slots_;
  std::vector<std::uint16_t> pending_wires_;
  std::vector<core::DecodedWindow<float>> window_batch_;
  std::vector<float> last_window_;  ///< last good reconstruction, all leads
  CoordinatorStats stats_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_COORDINATOR_HPP
