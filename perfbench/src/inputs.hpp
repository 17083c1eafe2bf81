#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

/// \file inputs.hpp
/// Workload definitions and the sensor side of every benchmark run.
///
/// The harness owns both ends of each stream. It synthesises ECG from the
/// run seed, encodes it through wbsn::StreamSession (encoder, MSP430 cycle
/// model, Bluetooth link with its loss model, ARQ transmitter) and records
/// every frame the link delivers together with the window period ("tick")
/// it was sent in. The system under test later receives only those frames.
/// The synthetic ECG corpus and the send/keyframe schedule are fixed; the
/// seed picks record, offset, sensing seed (for per-node profiles) and
/// link loss per node.
///
/// Retransmissions need receiver feedback. Feedback that arrived from
/// decode worker threads would make the frame stream depend on thread
/// timing, so the sender is driven instead by ReceiverReplica: the
/// per-node receive logic of FleetCoordinator (ARQ clock = frames
/// processed, lead-group assembly ahead of the ARQ, in-order release,
/// abandonment) re-run here on the same frame sequence. The gateway's real
/// feedback is recorded during the run and must equal the replica's, which
/// proves the sender reacted to exactly what the gateway said.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "csecg/core/decoder.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/wbsn/arq.hpp"
#include "csecg/wbsn/link.hpp"

namespace perfbench {

using namespace csecg;

/// One workload: the sensor population it synthesises and the
/// configuration of the system under test. Why each workload exists is
/// recorded beside its definition in make_spec().
struct WorkloadSpec {
  std::string name;
  /// true: GatewayService fed on the open-loop window schedule.
  /// false: FleetCoordinator fed by one uploader blocked in submit().
  bool open_loop = true;
  std::size_t nodes = 0;
  std::size_t leads = 1;
  /// CR (percent) per stream profile, cycled over the nodes.
  std::vector<double> crs;
  /// true: the nodes of one CR share one profile (one sensing seed);
  /// false: every node carries its own sensing seed.
  bool shared_profiles = true;
  std::size_t keyframe_interval = 64;
  /// Force each node's first periodic keyframe at a phase in
  /// [1, keyframe_interval] staggered by node, so cold solves are spread
  /// over time.
  bool stagger_keyframes = false;
  /// Measured windows per node (the warm-up window 0 comes on top).
  std::size_t windows = 0;
  wbsn::LinkConfig link;
  /// On top of the link's stochastic loss, drop the first copy of one
  /// lead frame of one seeded measured window per node (never the last
  /// window, whose gap no later frame would expose), so every run
  /// exercises the same number of NACK/retransmit recoveries.
  bool scheduled_drop = false;
  wbsn::ArqConfig arq;
  // System under test.
  std::size_t shards = 1;
  std::size_t workers_per_shard = 2;
  std::size_t decode_batch = 1;
  std::size_t queue_depth = 64;
  core::PriorPolicy prior;
  /// Nodes whose every window is replayed bit for bit in untraced runs
  /// (the traced run replays all of them).
  std::size_t verify_nodes = 0;

  std::size_t workers() const { return shards * workers_per_shard; }
};

/// The named workload, sized for a run of \p seconds. Sizes depend on
/// the name and \p seconds only, never on anything measured. Zero
/// \p nodes / \p windows keep the defaults (the self-test shrinks them).
WorkloadSpec make_spec(const std::string& name, double seconds,
                       std::size_t nodes = 0, std::size_t windows = 0);

/// A frame as the link delivered it, tagged with the tick it was sent in
/// (tick 0 = first contact; tick t >= 1 carries window t).
struct Arrival {
  std::uint32_t tick = 0;
  std::vector<std::uint8_t> frame;
};

/// One receiver decision, in the order FleetCoordinator hands them to its
/// decode path.
struct RxEvent {
  enum class Kind : std::uint8_t { kProfile, kWindow, kLost };
  Kind kind = Kind::kWindow;
  /// Input-window index (wire sequence minus profile frames so far).
  std::uint16_t slot = 0;
  /// Arrival whose processing released the event; -1 = released by
  /// FleetCoordinator::finish().
  std::int64_t released_by = -1;
  /// The frames to decode: leads frames of a group, one frame otherwise,
  /// none for a lost window or a group discarded before release.
  std::vector<std::vector<std::uint8_t>> frames;
};

struct NodeInput {
  core::StreamProfile profile;
  /// Send phase inside the 2-s window period, seconds.
  double phase_s = 0.0;
  std::vector<Arrival> arrivals;
  std::vector<RxEvent> events;
  /// Feedback the replica emitted, in order (ACKs and NACKs).
  std::vector<wbsn::FeedbackMessage> feedback;
  /// Source ADC samples: (windows + 1) x leads x N, window-major,
  /// lead-major inside a window.
  std::vector<std::int16_t> source;
  // Sender-side ledger.
  std::size_t frames_sent = 0;
  std::size_t wire_bits = 0;
  std::size_t retransmissions = 0;
  std::size_t windows_encoded = 0;
  double encode_seconds = 0.0;  ///< modelled MSP430 busy time
  /// Extra concealments FleetCoordinator::finish() delivers for lead
  /// groups whose sequence was already released: lead frames of a group
  /// retransmission that arrive after the group completed stay parked in
  /// the fleet's group assembly, and finish() conceals that delivered
  /// window a second time. Counted, never expected as windows.
  std::size_t stale_concealments = 0;
};

struct Inputs {
  WorkloadSpec spec;
  std::vector<NodeInput> nodes;
  std::size_t window = 0;  ///< N samples per lead window
};

/// Synthesises and encodes every node's stream. Pure function of
/// (spec, seed).
Inputs synthesise(const WorkloadSpec& spec, std::uint64_t seed);

/// FleetCoordinator's per-node receive logic without the decode:
/// ARQ clock, lead-group assembly, in-order release, abandonment and the
/// finish-time flush. Emits the events and feedback the fleet would.
class ReceiverReplica {
 public:
  ReceiverReplica(const wbsn::ArqConfig& arq, std::size_t leads);

  /// Processes one arrival; returns the feedback it produced (also
  /// appended to node.feedback).
  const std::vector<wbsn::FeedbackMessage>& on_frame(
      std::vector<std::uint8_t> frame, std::int64_t arrival,
      NodeInput& node);
  void finish(NodeInput& node);

 private:
  void assemble(std::vector<std::uint8_t> frame);
  void discard(std::uint16_t sequence);
  void handle(wbsn::ArqReceiver::Event& event, std::int64_t arrival,
              NodeInput& node);
  void emit(RxEvent::Kind kind, std::uint16_t sequence, std::int64_t arrival,
            std::vector<std::vector<std::uint8_t>> frames, NodeInput& node);

  wbsn::ArqConfig config_;
  wbsn::ArqReceiver arq_;
  std::size_t leads_;
  double ticks_ = 0.0;
  std::uint16_t profile_slots_ = 0;
  core::Packet packet_;
  wbsn::ArqReceiver::Output out_;
  std::map<std::uint16_t, std::vector<std::vector<std::uint8_t>>> assembling_;
  std::map<std::uint16_t, std::vector<std::vector<std::uint8_t>>> ready_;
  std::vector<bool> released_ = std::vector<bool>(1u << 16, false);
};

/// splitmix64 finaliser: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_HPP
