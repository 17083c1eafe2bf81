#include "csecg/wbsn/arq.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

// ------------------------------------------------------------ transmitter

ArqTransmitter::ArqTransmitter(const ArqConfig& config) : config_(config) {
  CSECG_CHECK(config.retry_timeout > 0.0, "retry timeout must be positive");
  CSECG_CHECK(config.backoff_factor >= 1.0,
              "backoff factor must be >= 1");
  CSECG_CHECK(config.tx_window > 0 && config.rx_reorder > 0,
              "ARQ buffers need positive capacity");
}

void ArqTransmitter::frame_sent(std::uint16_t sequence,
                                std::vector<std::uint8_t> frame,
                                double now) {
  if (!config_.enabled) {
    return;
  }
  Pending entry;
  entry.sequence = sequence;
  entry.frame = std::move(frame);
  entry.next_eligible = now;
  pending_.push_back(std::move(entry));
  ++stats_.frames_tracked;
  if (pending_.size() > config_.tx_window) {
    // Bounded buffer: the oldest frame can no longer be repaired. If the
    // receiver still needed it, its NACK will miss and force a keyframe.
    pending_.pop_front();
    ++stats_.frames_evicted;
  }
}

void ArqTransmitter::give_up(const Pending& entry) {
  (void)entry;
  ++stats_.frames_expired;
  ++stats_.keyframe_requests;
  obs::add("arq.frames.expired");
  obs::add("arq.keyframe.requests");
  keyframe_requested_ = true;
}

void ArqTransmitter::on_feedback(const FeedbackMessage& message,
                                 double now) {
  if (!config_.enabled) {
    return;
  }
  if (message.kind == FeedbackMessage::Kind::kAck) {
    ++stats_.acks_received;
    // Cumulative: everything at or before the acked sequence is done.
    while (!pending_.empty() &&
           !seq_less(message.sequence, pending_.front().sequence)) {
      pending_.pop_front();
    }
    return;
  }
  ++stats_.nacks_received;
  // A NACK names a sequence, and a lead-group window multiplexes several
  // frames (one per lead) onto one sequence: the receiver cannot say
  // which lead it lost, so the whole group retransmits as one unit.
  // Single-lead streams have one entry per sequence and behave exactly
  // as before.
  bool found = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->sequence != message.sequence) {
      ++it;
      continue;
    }
    found = true;
    if (it->retries >= config_.max_retries) {
      give_up(*it);
      it = pending_.erase(it);
      continue;
    }
    if (now >= it->next_eligible) {
      it->nacked = true;
    }
    // else: duplicate NACK inside the backoff window — leave it be.
    ++it;
  }
  if (!found) {
    // Already evicted or expired: the gap cannot be repaired. Ask for a
    // keyframe so the stream re-synchronises instead of stalling.
    give_up(Pending{});
  }
}

std::vector<std::vector<std::uint8_t>> ArqTransmitter::due_retransmissions(
    double now) {
  std::vector<std::vector<std::uint8_t>> frames;
  if (!config_.enabled) {
    return frames;
  }
  for (auto& entry : pending_) {
    if (!entry.nacked) {
      continue;
    }
    entry.nacked = false;
    ++entry.retries;
    entry.next_eligible =
        now + config_.retry_timeout *
                  std::pow(config_.backoff_factor,
                           static_cast<double>(entry.retries));
    ++stats_.retransmissions;
    obs::add("arq.retransmissions");
    frames.push_back(entry.frame);
  }
  return frames;
}

bool ArqTransmitter::consume_keyframe_request() {
  const bool requested = keyframe_requested_;
  keyframe_requested_ = false;
  return requested;
}

// --------------------------------------------------------------- receiver

ArqReceiver::ArqReceiver(const ArqConfig& config,
                         std::uint16_t first_sequence)
    : config_(config), expected_(first_sequence) {
  CSECG_CHECK(config.retry_timeout > 0.0, "retry timeout must be positive");
  CSECG_CHECK(config.backoff_factor >= 1.0,
              "backoff factor must be >= 1");
  CSECG_CHECK(config.rx_reorder > 0, "reorder buffer needs capacity");
}

void ArqReceiver::note_missing(std::uint16_t sequence, double now,
                               Output& out) {
  if (missing_.count(sequence) != 0 || buffer_.count(sequence) != 0) {
    return;
  }
  Missing gap;
  gap.first_missed = now;
  gap.nacks = 1;
  gap.next_nack = now + config_.retry_timeout;
  missing_.emplace(sequence, gap);
  ++stats_.gaps_detected;
  ++stats_.nacks_sent;
  obs::add("arq.gaps.detected");
  obs::add("arq.nacks.sent");
  out.feedback.push_back(
      {FeedbackMessage::Kind::kNack, sequence});
}

void ArqReceiver::release_ready(Output& out) {
  bool released = false;
  while (true) {
    const auto it = buffer_.find(expected_);
    if (it == buffer_.end()) {
      break;
    }
    out.events.push_back({expected_, false, std::move(it->second)});
    buffer_.erase(it);
    ++stats_.frames_released;
    released = true;
    ++expected_;
  }
  if (released) {
    ++stats_.acks_sent;
    out.feedback.push_back(
        {FeedbackMessage::Kind::kAck,
         static_cast<std::uint16_t>(expected_ - 1)});
  }
}

void ArqReceiver::abandon_front(Output& out) {
  // Declare the first missing sequence unrecoverable and move on.
  const auto it = missing_.begin();
  out.events.push_back({it->first, true, {}});
  ++stats_.windows_abandoned;
  obs::add("arq.windows.abandoned");
  if (it->first == expected_) {
    ++expected_;
  }
  missing_.erase(it);
}

void ArqReceiver::maintain(double now, Output& out) {
  // Abandon hopeless front gaps (events must stay in sequence order, so
  // only the gap at expected_ can be skipped past).
  while (!missing_.empty()) {
    const auto front = missing_.begin();
    if (front->first != expected_ ||
        front->second.nacks <= config_.max_retries ||
        now < front->second.next_nack) {
      break;
    }
    abandon_front(out);
    release_ready(out);
  }
  // Re-NACK overdue gaps with exponential backoff.
  for (auto& [sequence, gap] : missing_) {
    if (now < gap.next_nack || gap.nacks > config_.max_retries) {
      continue;
    }
    ++gap.nacks;
    if (gap.nacks > config_.max_retries) {
      // Final NACK sent: give the retransmission one plain timeout to
      // land, then the abandonment check above may conceal the window.
      gap.next_nack = now + config_.retry_timeout;
    } else {
      gap.next_nack =
          now + config_.retry_timeout *
                    std::pow(config_.backoff_factor,
                             static_cast<double>(gap.nacks));
    }
    ++stats_.nacks_sent;
    obs::add("arq.nacks.sent");
    out.feedback.push_back({FeedbackMessage::Kind::kNack, sequence});
  }
}

void ArqReceiver::on_frame(std::uint16_t sequence,
                           std::vector<std::uint8_t> frame, double now,
                           Output& out) {
  if (!config_.enabled) {
    out.events.push_back({sequence, false, std::move(frame)});
    return;
  }
  if (seq_less(sequence, expected_)) {
    // Stale or duplicate retransmission: re-ACK so the node flushes it.
    ++stats_.duplicates;
    ++stats_.acks_sent;
    out.feedback.push_back(
        {FeedbackMessage::Kind::kAck,
         static_cast<std::uint16_t>(expected_ - 1)});
    maintain(now, out);
    return;
  }
  if (buffer_.count(sequence) != 0) {
    ++stats_.duplicates;
    maintain(now, out);
    return;
  }
  // In-order fast path: the expected frame with nothing buffered ahead
  // is delivered directly — routing it through the reorder buffer would
  // allocate (and immediately free) a tree node per frame, and a synced
  // stream takes this path for every single arrival.
  if (sequence == expected_ && buffer_.empty()) {
    const auto front_gap = missing_.find(sequence);
    if (front_gap != missing_.end()) {
      ++stats_.windows_recovered;
      obs::add("arq.windows.recovered");
      obs::observe("arq.recovery.ticks",
                   now - front_gap->second.first_missed);
      stats_.recovery_latency_ticks += now - front_gap->second.first_missed;
      missing_.erase(front_gap);
    }
    out.events.push_back({sequence, false, std::move(frame)});
    ++stats_.frames_released;
    ++expected_;
    ++stats_.acks_sent;
    out.feedback.push_back(
        {FeedbackMessage::Kind::kAck,
         static_cast<std::uint16_t>(expected_ - 1)});
    maintain(now, out);
    return;
  }
  // A filled gap is a recovery; score its latency.
  const auto gap = missing_.find(sequence);
  if (gap != missing_.end()) {
    ++stats_.windows_recovered;
    obs::add("arq.windows.recovered");
    obs::observe("arq.recovery.ticks", now - gap->second.first_missed);
    stats_.recovery_latency_ticks += now - gap->second.first_missed;
    missing_.erase(gap);
  }
  // NACK every sequence the new arrival reveals as missing.
  for (std::uint16_t s = expected_; seq_less(s, sequence);
       s = static_cast<std::uint16_t>(s + 1)) {
    note_missing(s, now, out);
  }
  if (sequence != expected_) {
    ++stats_.frames_buffered;
  }
  buffer_.emplace(sequence, std::move(frame));
  release_ready(out);
  // Bounded reorder buffer: under a long burst, give up on the oldest
  // gaps rather than growing without bound.
  while (buffer_.size() > config_.rx_reorder && !missing_.empty()) {
    abandon_front(out);
    release_ready(out);
  }
  maintain(now, out);
}

void ArqReceiver::on_corrupt_frame(double now, Output& out) {
  ++stats_.corrupt_frames;
  obs::add("arq.frames.corrupt");
  if (config_.enabled) {
    maintain(now, out);
  }
}

void ArqReceiver::on_tick(double now, Output& out) {
  if (config_.enabled) {
    maintain(now, out);
  }
}

void ArqReceiver::finish(double now, Output& out) {
  if (!config_.enabled) {
    return;
  }
  while (!buffer_.empty() || !missing_.empty()) {
    if (!missing_.empty() && missing_.begin()->first == expected_) {
      abandon_front(out);
    } else if (!buffer_.empty() && buffer_.begin()->first == expected_) {
      release_ready(out);
    } else {
      // Tail gap with nothing buffered beyond it, or an inconsistent
      // front: abandon the earliest outstanding sequence.
      if (!missing_.empty() &&
          (buffer_.empty() ||
           seq_less(missing_.begin()->first, buffer_.begin()->first))) {
        abandon_front(out);
      } else if (!buffer_.empty()) {
        // Missing entry was never created (e.g. corrupt arrivals only):
        // synthesise the loss events up to the first buffered frame.
        out.events.push_back({expected_, true, {}});
        ++stats_.windows_abandoned;
        obs::add("arq.windows.abandoned");
        ++expected_;
        release_ready(out);
      }
    }
  }
  (void)now;
}

}  // namespace csecg::wbsn
