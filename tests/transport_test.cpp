// Tests for the fault-tolerant transport: Gilbert–Elliott burst channel
// and bit-error injection in the link, the NACK-driven ARQ state machines
// on both sides, and the end-to-end pipeline guarantee that a lossy,
// noisy channel yields only CRC-clean or explicitly-concealed windows.

#include <gtest/gtest.h>

#include <vector>

#include "csecg/core/codebook.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/util/error.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/wbsn/arq.hpp"
#include "csecg/wbsn/link.hpp"
#include "csecg/wbsn/pipeline.hpp"

namespace csecg::wbsn {
namespace {

ecg::SyntheticDatabase small_db() {
  ecg::DatabaseConfig config;
  config.record_count = 2;
  config.duration_s = 16.0;
  return ecg::SyntheticDatabase(config);
}

std::vector<std::uint8_t> test_frame(std::uint16_t sequence) {
  core::Packet packet;
  packet.sequence = sequence;
  packet.kind = core::PacketKind::kDifferential;
  packet.payload = {static_cast<std::uint8_t>(sequence & 0xFF)};
  return packet.serialize();
}

// ------------------------------------------------------- sequence math --

TEST(SeqLessTest, HandlesWrapAround) {
  EXPECT_TRUE(seq_less(1, 2));
  EXPECT_FALSE(seq_less(2, 1));
  EXPECT_FALSE(seq_less(5, 5));
  EXPECT_TRUE(seq_less(65535, 0));  // wrap
  EXPECT_TRUE(seq_less(65530, 3));
  EXPECT_FALSE(seq_less(3, 65530));
}

// -------------------------------------------------------- burst channel --

TEST(BurstChannelTest, GilbertElliottMatchesTargetLossRate) {
  LinkConfig config;
  config.loss_rate = 0.2;
  config.mean_burst_frames = 4.0;
  config.seed = 11;
  BluetoothLink link(config);
  const std::vector<std::uint8_t> frame(30, 1);
  const int kFrames = 20000;
  int lost = 0;
  for (int i = 0; i < kFrames; ++i) {
    lost += !link.transmit(frame).has_value();
  }
  // Stationary bad-state probability equals the configured loss rate.
  EXPECT_NEAR(static_cast<double>(lost) / kFrames, 0.2, 0.02);
  // Mean burst length (lost frames per loss episode) matches the config.
  const auto& stats = link.stats();
  ASSERT_GT(stats.loss_bursts, 0u);
  const double mean_burst = static_cast<double>(stats.frames_lost) /
                            static_cast<double>(stats.loss_bursts);
  EXPECT_NEAR(mean_burst, 4.0, 0.5);
}

TEST(BurstChannelTest, UnitBurstReproducesIidLoss) {
  // mean_burst_frames = 1 must draw the exact same RNG sequence as the
  // seed's Bernoulli path: same seed => same loss pattern.
  LinkConfig iid;
  iid.loss_rate = 0.3;
  iid.seed = 21;
  LinkConfig unit = iid;
  unit.mean_burst_frames = 1.0;
  BluetoothLink a(iid);
  BluetoothLink b(unit);
  const std::vector<std::uint8_t> frame(10, 0);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.transmit(frame).has_value(), b.transmit(frame).has_value());
  }
}

TEST(BurstChannelTest, DeterministicSchedulesFire) {
  LinkConfig config;
  config.drop_schedule = {1, 3};
  config.corrupt_schedule = {2};
  BluetoothLink link(config);
  const auto frame = test_frame(0);
  EXPECT_TRUE(link.transmit(frame).has_value());       // frame 0
  EXPECT_FALSE(link.transmit(frame).has_value());      // frame 1 dropped
  const auto corrupted = link.transmit(frame);         // frame 2 corrupted
  ASSERT_TRUE(corrupted.has_value());
  EXPECT_NE(*corrupted, frame);
  EXPECT_FALSE(core::Packet::parse(*corrupted).has_value());  // CRC catches
  EXPECT_FALSE(link.transmit(frame).has_value());      // frame 3 dropped
  EXPECT_TRUE(link.transmit(frame).has_value());       // frame 4
  EXPECT_EQ(link.stats().frames_lost, 2u);
  EXPECT_EQ(link.stats().frames_corrupted, 1u);
}

TEST(BurstChannelTest, BitErrorsAreCaughtByCrc) {
  LinkConfig config;
  config.bit_error_rate = 0.01;  // aggressive: ~2 flips per 30-byte frame
  config.seed = 31;
  BluetoothLink link(config);
  core::Packet packet;
  packet.kind = core::PacketKind::kAbsolute;
  packet.payload.assign(40, 0x3C);
  const auto frame = packet.serialize();
  int corrupted = 0;
  for (int i = 0; i < 500; ++i) {
    const auto delivered = link.transmit(frame);
    ASSERT_TRUE(delivered.has_value());  // BER corrupts, never drops
    if (*delivered != frame) {
      ++corrupted;
      EXPECT_FALSE(core::Packet::parse(*delivered).has_value());
    } else {
      EXPECT_TRUE(core::Packet::parse(*delivered).has_value());
    }
  }
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(link.stats().frames_corrupted,
            static_cast<std::size_t>(corrupted));
}

TEST(BurstChannelTest, LatencyAndJitterAccumulate) {
  LinkConfig config;
  config.throughput_bps = 8000.0;
  config.frame_overhead_bytes = 8;
  config.latency_s = 0.05;
  config.jitter_s = 0.01;
  config.seed = 41;
  BluetoothLink link(config);
  const std::vector<std::uint8_t> frame(92, 0);  // 100 wire bytes = 0.1 s
  ASSERT_TRUE(link.transmit(frame).has_value());
  const auto& stats = link.stats();
  EXPECT_GE(stats.last_latency_s, 0.15);
  EXPECT_LE(stats.last_latency_s, 0.16);
  EXPECT_EQ(stats.latency_s_total, stats.last_latency_s);
}

TEST(BurstChannelTest, RejectsBadRobustnessConfig) {
  LinkConfig config;
  config.mean_burst_frames = 0.5;
  EXPECT_THROW(BluetoothLink{config}, Error);
  config = {};
  config.bit_error_rate = 1.0;
  EXPECT_THROW(BluetoothLink{config}, Error);
  config = {};
  config.jitter_s = -0.1;
  EXPECT_THROW(BluetoothLink{config}, Error);
}

// ------------------------------------------------------ ARQ transmitter --

TEST(ArqTransmitterTest, CumulativeAckClearsPending) {
  ArqTransmitter tx;
  tx.frame_sent(0, test_frame(0), 0.0);
  tx.frame_sent(1, test_frame(1), 1.0);
  tx.frame_sent(2, test_frame(2), 2.0);
  EXPECT_EQ(tx.pending_frames(), 3u);
  tx.on_feedback({FeedbackMessage::Kind::kAck, 1}, 2.0);
  EXPECT_EQ(tx.pending_frames(), 1u);
  tx.on_feedback({FeedbackMessage::Kind::kAck, 2}, 2.0);
  EXPECT_TRUE(tx.idle());
}

TEST(ArqTransmitterTest, NackTriggersRetransmission) {
  ArqTransmitter tx;
  const auto frame = test_frame(7);
  tx.frame_sent(7, frame, 0.0);
  tx.on_feedback({FeedbackMessage::Kind::kNack, 7}, 1.0);
  const auto due = tx.due_retransmissions(1.0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], frame);
  EXPECT_EQ(tx.stats().retransmissions, 1u);
  // Nothing further due until another NACK arrives.
  EXPECT_TRUE(tx.due_retransmissions(2.0).empty());
}

TEST(ArqTransmitterTest, BackoffSuppressesDuplicateNacks) {
  ArqConfig config;
  config.retry_timeout = 2.0;
  config.backoff_factor = 2.0;
  ArqTransmitter tx(config);
  tx.frame_sent(0, test_frame(0), 0.0);
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 0.5);
  ASSERT_EQ(tx.due_retransmissions(0.5).size(), 1u);
  // Next eligibility is 0.5 + 2*2^1 = 4.5; a NACK before that is ignored.
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 2.0);
  EXPECT_TRUE(tx.due_retransmissions(2.0).empty());
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 5.0);
  EXPECT_EQ(tx.due_retransmissions(5.0).size(), 1u);
}

TEST(ArqTransmitterTest, RetryBudgetExhaustionForcesKeyframe) {
  ArqConfig config;
  config.max_retries = 2;
  config.retry_timeout = 1.0;
  config.backoff_factor = 1.0;  // no backoff: simpler clock arithmetic
  ArqTransmitter tx(config);
  tx.frame_sent(3, test_frame(3), 0.0);
  double now = 1.0;
  for (std::size_t attempt = 0; attempt < config.max_retries; ++attempt) {
    tx.on_feedback({FeedbackMessage::Kind::kNack, 3}, now);
    ASSERT_EQ(tx.due_retransmissions(now).size(), 1u);
    now += 2.0;
    EXPECT_FALSE(tx.consume_keyframe_request());
  }
  // Third NACK: budget exhausted, frame dropped, keyframe demanded.
  tx.on_feedback({FeedbackMessage::Kind::kNack, 3}, now);
  EXPECT_TRUE(tx.due_retransmissions(now).empty());
  EXPECT_TRUE(tx.idle());
  EXPECT_EQ(tx.stats().frames_expired, 1u);
  EXPECT_TRUE(tx.consume_keyframe_request());
  EXPECT_FALSE(tx.consume_keyframe_request());  // one-shot
}

TEST(ArqTransmitterTest, UnknownNackRequestsKeyframe) {
  ArqTransmitter tx;
  tx.on_feedback({FeedbackMessage::Kind::kNack, 99}, 0.0);
  EXPECT_TRUE(tx.consume_keyframe_request());
}

TEST(ArqTransmitterTest, BoundedBufferEvictsOldest) {
  ArqConfig config;
  config.tx_window = 4;
  ArqTransmitter tx(config);
  for (std::uint16_t s = 0; s < 6; ++s) {
    tx.frame_sent(s, test_frame(s), static_cast<double>(s));
  }
  EXPECT_EQ(tx.pending_frames(), 4u);
  EXPECT_EQ(tx.stats().frames_evicted, 2u);
  // Evicted frames cannot be repaired: NACK for them forces a keyframe.
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 6.0);
  EXPECT_TRUE(tx.consume_keyframe_request());
}

TEST(ArqTransmitterTest, EvictionDropsAWholeGroup) {
  // Six 3-lead windows overflow the default 16-frame buffer. The oldest
  // group leaves whole: a split group could never be completed by a
  // resend, so a NACK for it must miss and ask for a keyframe at once
  // instead of retransmitting a stray lead.
  ArqTransmitter tx;
  for (std::uint16_t s = 0; s < 6; ++s) {
    for (std::uint8_t lead = 0; lead < 3; ++lead) {
      tx.frame_sent(s, test_frame(s), static_cast<double>(s));
    }
  }
  EXPECT_EQ(tx.pending_frames(), 15u);
  EXPECT_EQ(tx.stats().frames_evicted, 3u);
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 6.0);
  EXPECT_TRUE(tx.due_retransmissions(6.0).empty());
  EXPECT_TRUE(tx.consume_keyframe_request());
}

TEST(ArqTransmitterTest, DisabledIsInert) {
  ArqConfig config;
  config.enabled = false;
  ArqTransmitter tx(config);
  tx.frame_sent(0, test_frame(0), 0.0);
  EXPECT_TRUE(tx.idle());
  tx.on_feedback({FeedbackMessage::Kind::kNack, 0}, 1.0);
  EXPECT_TRUE(tx.due_retransmissions(1.0).empty());
  EXPECT_FALSE(tx.consume_keyframe_request());
}

// --------------------------------------------------------- ARQ receiver --

TEST(ArqReceiverTest, InOrderFramesReleaseImmediately) {
  ArqReceiver rx;
  for (std::uint16_t s = 0; s < 3; ++s) {
    ArqReceiver::Output out;
    rx.on_frame(s, test_frame(s), static_cast<double>(s), out);
    ASSERT_EQ(out.events.size(), 1u);
    EXPECT_EQ(out.events[0].sequence, s);
    EXPECT_FALSE(out.events[0].lost);
    // Every release carries a cumulative ACK.
    ASSERT_EQ(out.feedback.size(), 1u);
    EXPECT_EQ(out.feedback[0].kind, FeedbackMessage::Kind::kAck);
    EXPECT_EQ(out.feedback[0].sequence, s);
  }
  EXPECT_EQ(rx.stats().frames_released, 3u);
  EXPECT_EQ(rx.stats().gaps_detected, 0u);
}

TEST(ArqReceiverTest, GapTriggersImmediateNack) {
  ArqReceiver rx;
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  ArqReceiver::Output out;
  rx.on_frame(2, test_frame(2), 1.0, out);
  // Frame 2 is buffered, not released; sequence 1 is NACKed.
  EXPECT_TRUE(out.events.empty());
  ASSERT_GE(out.feedback.size(), 1u);
  EXPECT_EQ(out.feedback[0].kind, FeedbackMessage::Kind::kNack);
  EXPECT_EQ(out.feedback[0].sequence, 1u);
  EXPECT_EQ(rx.stats().gaps_detected, 1u);
  EXPECT_EQ(rx.stats().frames_buffered, 1u);
}

TEST(ArqReceiverTest, RetransmissionFillsGapAndReleasesRun) {
  ArqReceiver rx;
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  rx.on_frame(2, test_frame(2), 1.0, ignored);
  rx.on_frame(3, test_frame(3), 2.0, ignored);
  ArqReceiver::Output out;
  rx.on_frame(1, test_frame(1), 3.0, out);  // repair arrives
  ASSERT_EQ(out.events.size(), 3u);
  EXPECT_EQ(out.events[0].sequence, 1u);
  EXPECT_EQ(out.events[1].sequence, 2u);
  EXPECT_EQ(out.events[2].sequence, 3u);
  for (const auto& event : out.events) {
    EXPECT_FALSE(event.lost);
  }
  EXPECT_EQ(rx.stats().windows_recovered, 1u);
  EXPECT_NEAR(rx.stats().mean_recovery_latency_ticks(), 2.0, 1e-12);
}

TEST(ArqReceiverTest, HopelessGapIsAbandonedAsLost) {
  ArqConfig config;
  config.max_retries = 1;
  config.retry_timeout = 1.0;
  config.backoff_factor = 1.0;
  ArqReceiver rx(config);
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  rx.on_frame(2, test_frame(2), 1.0, ignored);  // NACK #1 for seq 1
  std::vector<ArqReceiver::Event> events;
  std::size_t nacks = 0;
  for (double now = 2.0; now < 10.0; now += 1.0) {
    ArqReceiver::Output out;
    rx.on_tick(now, out);
    for (auto& event : out.events) {
      events.push_back(std::move(event));
    }
    for (const auto& message : out.feedback) {
      nacks += message.kind == FeedbackMessage::Kind::kNack;
    }
  }
  // Re-NACKed once (max_retries), then abandoned: the lost event for 1
  // precedes the release of buffered 2.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sequence, 1u);
  EXPECT_TRUE(events[0].lost);
  EXPECT_EQ(events[1].sequence, 2u);
  EXPECT_FALSE(events[1].lost);
  EXPECT_EQ(nacks, 1u);
  EXPECT_EQ(rx.stats().windows_abandoned, 1u);
}

TEST(ArqReceiverTest, DuplicatesAreDetectedAndReAcked) {
  ArqReceiver rx;
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  ArqReceiver::Output out;
  rx.on_frame(0, test_frame(0), 1.0, out);  // stale duplicate
  EXPECT_TRUE(out.events.empty());
  ASSERT_EQ(out.feedback.size(), 1u);
  EXPECT_EQ(out.feedback[0].kind, FeedbackMessage::Kind::kAck);
  EXPECT_EQ(out.feedback[0].sequence, 0u);
  EXPECT_EQ(rx.stats().duplicates, 1u);
}

TEST(ArqReceiverTest, FinishFlushesTailLossesInOrder) {
  ArqReceiver rx;
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  rx.on_frame(3, test_frame(3), 1.0, ignored);  // 1 and 2 missing
  ArqReceiver::Output out;
  rx.finish(2.0, out);
  ASSERT_EQ(out.events.size(), 3u);
  EXPECT_EQ(out.events[0].sequence, 1u);
  EXPECT_TRUE(out.events[0].lost);
  EXPECT_EQ(out.events[1].sequence, 2u);
  EXPECT_TRUE(out.events[1].lost);
  EXPECT_EQ(out.events[2].sequence, 3u);
  EXPECT_FALSE(out.events[2].lost);
  EXPECT_EQ(rx.stats().windows_abandoned, 2u);
}

TEST(ArqReceiverTest, ReorderBufferOverflowAbandonsFrontGap) {
  ArqConfig config;
  config.rx_reorder = 3;
  ArqReceiver rx(config);
  ArqReceiver::Output ignored;
  rx.on_frame(0, test_frame(0), 0.0, ignored);
  std::vector<ArqReceiver::Event> events;
  // Sequence 1 never arrives; 2..6 flood the reorder buffer.
  for (std::uint16_t s = 2; s <= 6; ++s) {
    ArqReceiver::Output out;
    rx.on_frame(s, test_frame(s), static_cast<double>(s), out);
    for (auto& event : out.events) {
      events.push_back(std::move(event));
    }
  }
  // The overflow must have forced the front gap out (declared lost) and
  // released the buffered run behind it, in order.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].sequence, 1u);
  EXPECT_TRUE(events[0].lost);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, static_cast<std::uint16_t>(i + 1));
    EXPECT_FALSE(events[i].lost);
  }
}

// -------------------------------------------------- end-to-end pipeline --

struct E2eSetup {
  ecg::SyntheticDatabase db = small_db();
  core::DecoderConfig config;
  coding::HuffmanCodebook book;

  E2eSetup() : book(core::default_difference_codebook()) {
    config.cs.keyframe_interval = 8;
    config.max_iterations = 300;  // keep runtime bounded; PRD still sane
    book = core::train_difference_codebook(db, config.cs);
  }
};

TEST(TransportE2eTest, LossFreeRunMatchesSeedAccounting) {
  E2eSetup setup;
  PipelineConfig pipe;  // defaults: no loss, ARQ on
  RealTimePipeline pipeline(setup.config, setup.book, pipe);
  const auto report = pipeline.run(setup.db.mote(0));
  EXPECT_EQ(report.windows_displayed, report.windows_input);
  EXPECT_EQ(report.windows_concealed, 0u);
  EXPECT_EQ(report.windows_corrupt_rejected, 0u);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_EQ(report.keyframes_forced, 0u);
  EXPECT_EQ(report.link.frames_sent, report.windows_input);
  // Wire accounting is unchanged from the seed: per frame the link charges
  // payload + 8 abstract overhead bytes, and the serialised frame itself
  // carries the 2-byte CRC — 10 bytes total beyond the logical packet.
  EXPECT_EQ(report.link.wire_bits,
            report.node.payload_bits + report.windows_input * 8u * 8u +
                report.windows_input * core::Packet::kCrcBytes * 8u);
}

TEST(TransportE2eTest, BurstLossAndBitErrorsNeverShowCorruptWindows) {
  E2eSetup setup;
  PipelineConfig pipe;
  pipe.link.loss_rate = 0.10;
  pipe.link.mean_burst_frames = 3.0;
  pipe.link.bit_error_rate = 1e-5;
  pipe.link.seed = 77;
  pipe.arq.retry_timeout = 1.0;
  RealTimePipeline pipeline(setup.config, setup.book, pipe);
  const auto report = pipeline.run(setup.db.mote(1));
  // The headline guarantee: every input window reaches the display, each
  // either CRC-clean-decoded or explicitly flagged concealed; nothing is
  // silently corrupt and nothing vanishes.
  EXPECT_EQ(report.windows_displayed + report.display_overruns,
            report.windows_input);
  EXPECT_EQ(report.windows_displayed,
            report.coordinator.windows_reconstructed -
                report.display_overruns +
                report.coordinator.windows_concealed);
  // PRD over clean windows stays in the loss-free quality regime.
  PipelineConfig clean_pipe = pipe;
  clean_pipe.link.loss_rate = 0.0;
  clean_pipe.link.bit_error_rate = 0.0;
  RealTimePipeline clean(setup.config, setup.book, clean_pipe);
  const auto clean_report = clean.run(setup.db.mote(1));
  EXPECT_NEAR(report.mean_prd, clean_report.mean_prd, 1.0);
}

TEST(TransportE2eTest, ArqRecoversWindowsUnderLoss) {
  E2eSetup setup;
  PipelineConfig pipe;
  pipe.link.loss_rate = 0.25;
  pipe.link.seed = 13;
  pipe.arq.retry_timeout = 1.0;
  RealTimePipeline pipeline(setup.config, setup.book, pipe);
  const auto report = pipeline.run(setup.db.mote(0));
  EXPECT_GT(report.link.frames_lost, 0u);
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_EQ(report.windows_displayed + report.display_overruns,
            report.windows_input);
}

TEST(TransportE2eTest, InterpolationConcealmentAlsoCoversEveryWindow) {
  E2eSetup setup;
  PipelineConfig pipe;
  pipe.link.loss_rate = 0.2;
  pipe.link.mean_burst_frames = 2.0;
  pipe.link.seed = 99;
  pipe.arq.max_retries = 1;  // force some abandonments -> concealment
  pipe.arq.retry_timeout = 1.0;
  pipe.concealment = ConcealmentStrategy::kInterpolate;
  RealTimePipeline pipeline(setup.config, setup.book, pipe);
  const auto report = pipeline.run(setup.db.mote(1));
  EXPECT_EQ(report.windows_displayed + report.display_overruns,
            report.windows_input);
}

TEST(TransportE2eTest, ScheduledDropForcesConcealmentOrRecovery) {
  E2eSetup setup;
  PipelineConfig pipe;
  pipe.link.drop_schedule = {2};  // exactly one frame vanishes
  pipe.arq.enabled = false;       // no repair: must conceal
  RealTimePipeline pipeline(setup.config, setup.book, pipe);
  const auto report = pipeline.run(setup.db.mote(0));
  EXPECT_EQ(report.link.frames_lost, 1u);
  // Without ARQ the lost window never reaches the consumer; subsequent
  // differentials are concealed until the next keyframe re-syncs.
  EXPECT_LT(report.windows_displayed, report.windows_input);
}

}  // namespace
}  // namespace csecg::wbsn
