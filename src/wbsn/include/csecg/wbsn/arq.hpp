#ifndef CSECG_WBSN_ARQ_HPP
#define CSECG_WBSN_ARQ_HPP

/// \file arq.hpp
/// NACK-driven selective-repeat ARQ between the coordinator and the
/// sensor node. The paper assumes a loss-free Bluetooth stream; with the
/// difference-coded packets of §IV-A2 a single lost frame breaks the
/// chain until the next keyframe, so a deployed WBSN needs recovery.
///
/// Protocol (receiver-driven, as befits a mote that must stay dumb):
///  * The coordinator acknowledges the newest in-order frame
///    (cumulative ACK) and NACKs every missing sequence number the
///    moment a gap is observed, re-NACKing with exponential backoff.
///  * The node keeps a bounded buffer of recently framed packets and
///    retransmits on NACK, with bounded retries and a backoff window
///    that suppresses duplicate-NACK storms.
///  * When either side exhausts its retry budget the node is asked to
///    force a keyframe (core::Encoder::request_keyframe) and the
///    receiver abandons the gap so the display can conceal it instead
///    of stalling the 2 s deadline.
///
/// Time is measured in window periods ("ticks"): the transmitter's clock
/// is the windows-encoded count, the receiver's the frames-processed
/// count. Both advance with the simulation whether or not it is paced.

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace csecg::wbsn {

/// Wrap-safe modulo-2^16 sequence compare: true when a precedes b.
inline bool seq_less(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(
             static_cast<std::uint16_t>(b - a)) > 0;
}

/// seq_less as a map ordering: the oldest sequence sorts first across
/// the 65535 -> 0 wrap, as long as the keys held at once span less than
/// half the sequence space (every bounded reorder window does).
struct SeqLess {
  bool operator()(std::uint16_t a, std::uint16_t b) const {
    return seq_less(a, b);
  }
};

struct ArqConfig {
  /// Master switch: off reproduces the seed's fire-and-forget link.
  bool enabled = true;
  /// Retransmissions allowed per frame before the node gives up (and the
  /// receiver declares the window unrecoverable).
  std::size_t max_retries = 3;
  /// Ticks before a NACK is repeated / a retransmission may be repeated.
  double retry_timeout = 2.0;
  /// Exponential backoff factor applied per retry to retry_timeout.
  double backoff_factor = 2.0;
  /// Node-side retransmission buffer depth (frames).
  std::size_t tx_window = 16;
  /// Coordinator-side reorder buffer depth (frames).
  std::size_t rx_reorder = 16;
};

struct FeedbackMessage {
  enum class Kind : std::uint8_t { kAck = 0, kNack = 1 };
  Kind kind = Kind::kAck;
  std::uint16_t sequence = 0;
};

// ------------------------------------------------------------ transmitter

struct ArqTxStats {
  std::size_t frames_tracked = 0;
  std::size_t acks_received = 0;
  std::size_t nacks_received = 0;
  std::size_t retransmissions = 0;
  std::size_t frames_expired = 0;   ///< gave up after max_retries
  std::size_t frames_evicted = 0;   ///< fell out of the bounded buffer
  std::size_t keyframe_requests = 0;
};

/// Node-side state machine: bounded retransmission buffer with NACK
/// triggering, per-frame retry caps and exponential backoff.
class ArqTransmitter {
 public:
  explicit ArqTransmitter(const ArqConfig& config = {});

  /// Registers a freshly framed packet (called once per encoded window).
  void frame_sent(std::uint16_t sequence, std::vector<std::uint8_t> frame,
                  double now);

  void on_feedback(const FeedbackMessage& message, double now);

  /// Frames due for retransmission at \p now. Each returned frame has its
  /// retry count bumped and its next eligibility pushed out by
  /// retry_timeout * backoff_factor^retries.
  std::vector<std::vector<std::uint8_t>> due_retransmissions(double now);

  /// True once after a frame exhausted its retries (the caller forwards
  /// this to Encoder::request_keyframe so the stream re-syncs).
  bool consume_keyframe_request();

  /// No frames awaiting acknowledgement or retransmission.
  bool idle() const { return pending_.empty(); }
  std::size_t pending_frames() const { return pending_.size(); }

  const ArqTxStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint16_t sequence = 0;
    std::vector<std::uint8_t> frame;
    std::size_t retries = 0;
    bool nacked = false;
    double next_eligible = 0.0;  ///< backoff gate for repeat NACKs
  };

  void give_up(const Pending& entry);

  ArqConfig config_;
  std::deque<Pending> pending_;  // ordered by send time == sequence order
  ArqTxStats stats_;
  bool keyframe_requested_ = false;
};

// --------------------------------------------------------------- receiver

struct ArqRxStats {
  std::size_t frames_released = 0;   ///< handed to the decoder in order
  std::size_t frames_buffered = 0;   ///< arrived out of order, held
  std::size_t duplicates = 0;
  std::size_t corrupt_frames = 0;    ///< CRC-rejected arrivals
  std::size_t acks_sent = 0;
  std::size_t nacks_sent = 0;
  std::size_t gaps_detected = 0;     ///< missing sequences first noticed
  std::size_t windows_recovered = 0; ///< gaps later filled by retransmit
  std::size_t windows_abandoned = 0; ///< declared lost -> concealment
  double recovery_latency_ticks = 0.0;  ///< summed over recoveries

  double mean_recovery_latency_ticks() const {
    return windows_recovered == 0
               ? 0.0
               : recovery_latency_ticks /
                     static_cast<double>(windows_recovered);
  }
};

/// Coordinator-side state machine: reorder buffer, gap tracking with
/// NACK/backoff, and bounded abandonment so a burst can never stall the
/// display pipeline.
class ArqReceiver {
 public:
  /// One in-sequence delivery decision. Events within and across Outputs
  /// are emitted in strictly increasing sequence order.
  struct Event {
    std::uint16_t sequence = 0;
    bool lost = false;  ///< unrecoverable: conceal instead of decode
    std::vector<std::uint8_t> frame;  ///< empty when lost
  };
  struct Output {
    std::vector<Event> events;
    std::vector<FeedbackMessage> feedback;
  };

  explicit ArqReceiver(const ArqConfig& config = {},
                       std::uint16_t first_sequence = 0);

  // Every entry point appends its events and feedback to \p out, whose
  // vector capacity the caller owns: a receive loop that clears and
  // reuses one Output per frame keeps the in-order fast path
  // allocation-free once warm.

  /// A CRC-clean frame arrived carrying \p sequence.
  void on_frame(std::uint16_t sequence, std::vector<std::uint8_t> frame,
                double now, Output& out);

  /// A frame failed the CRC check; its header cannot be trusted, so the
  /// loss surfaces later as a sequence gap.
  void on_corrupt_frame(double now, Output& out);

  /// Timer maintenance: re-NACK overdue gaps, abandon hopeless ones.
  void on_tick(double now, Output& out);

  /// End of stream: abandon every outstanding gap and flush the buffer.
  void finish(double now, Output& out);

  const ArqConfig& config() const { return config_; }
  const ArqRxStats& stats() const { return stats_; }

 private:
  struct Missing {
    double first_missed = 0.0;
    double next_nack = 0.0;
    std::size_t nacks = 0;
  };
  void note_missing(std::uint16_t sequence, double now, Output& out);
  void release_ready(Output& out);
  void maintain(double now, Output& out);
  void abandon_front(Output& out);

  ArqConfig config_;
  std::uint16_t expected_;
  std::map<std::uint16_t, std::vector<std::uint8_t>, SeqLess> buffer_;
  std::map<std::uint16_t, Missing, SeqLess> missing_;
  ArqRxStats stats_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_ARQ_HPP
