// Unit tests for csecg::wbsn::FleetCoordinator — the gateway-side fleet
// decode layer. Covers the scheduling invariants (per-node in-order
// delivery, bounded queue with backpressure, lifecycle checks), decode
// parity with a direct Decoder, ARQ-driven loss concealment and report
// consistency. Also stresses RingBuffer close()-while-blocked races;
// run these under ThreadSanitizer via scripts/check_sanitize.sh --tsan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/codebook.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/wbsn/fleet.hpp"
#include "csecg/wbsn/ring_buffer.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace csecg::wbsn {
namespace {

ecg::SyntheticDatabase small_db() {
  ecg::DatabaseConfig config;
  config.record_count = 2;
  config.duration_s = 16.0;
  return ecg::SyntheticDatabase(config);
}

// CR = 50 geometry, but a loose solver: these tests exercise scheduling
// and plumbing, not reconstruction quality.
core::DecoderConfig fast_config() {
  core::DecoderConfig config;
  config.max_iterations = 60;
  config.tolerance = 1e-3;
  return config;
}

// Serialized link frames for one node: `windows` consecutive windows of
// the record, encoded with the node's sensing seed.
std::vector<std::vector<std::uint8_t>> encode_stream(
    const core::DecoderConfig& config, const coding::HuffmanCodebook& book,
    const ecg::SyntheticDatabase& db, std::size_t windows) {
  core::Encoder encoder(config.cs, book);
  const auto& record = db.mote(0);
  const std::size_t n = config.cs.window;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    frames.push_back(encoder
                         .encode_window(std::span<const std::int16_t>(
                             record.samples.data() + w * n, n))
                         .serialize());
  }
  return frames;
}

// ------------------------------------------------------- fleet decode --

TEST(FleetTest, MultiNodeDeliveryIsPerNodeInOrder) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kWindows = 6;

  FleetConfig fleet_config;
  fleet_config.workers = 4;
  fleet_config.queue_depth = 16;

  std::vector<std::atomic<std::uint32_t>> next(kNodes);
  for (auto& n : next) {
    n.store(0);
  }
  std::atomic<bool> in_order{true};
  const auto sink = [&](const FleetWindow& window) {
    ASSERT_LT(window.node_id, kNodes);
    const auto expected = next[window.node_id].fetch_add(1);
    if (window.sequence != expected) {
      in_order = false;
    }
  };

  FleetCoordinator fleet(fleet_config, sink);
  std::vector<std::vector<std::vector<std::uint8_t>>> streams;
  for (std::size_t node = 0; node < kNodes; ++node) {
    core::DecoderConfig config = fast_config();
    config.cs.seed += node;  // every node is a distinct recovery problem
    streams.push_back(encode_stream(config, book, db, kWindows));
    EXPECT_EQ(fleet.add_node(config, book), node);
  }
  EXPECT_EQ(fleet.node_count(), kNodes);

  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t node = 0; node < kNodes; ++node) {
      EXPECT_TRUE(fleet.submit(static_cast<std::uint32_t>(node),
                               std::vector<std::uint8_t>(streams[node][w])));
    }
  }
  const FleetReport report = fleet.finish();

  EXPECT_TRUE(in_order);
  for (std::size_t node = 0; node < kNodes; ++node) {
    EXPECT_EQ(next[node].load(), kWindows);
  }

  // Aggregates are exactly the per-node sums.
  EXPECT_EQ(report.nodes.size(), kNodes);
  std::size_t submitted = 0;
  std::size_t reconstructed = 0;
  double iterations = 0.0;
  for (const auto& node : report.nodes) {
    EXPECT_EQ(node.frames_submitted, kWindows);
    EXPECT_EQ(node.windows_reconstructed, kWindows);
    EXPECT_EQ(node.windows_concealed, 0u);
    EXPECT_LE(node.latency_p50_s, node.latency_p95_s);
    EXPECT_LE(node.latency_p95_s, node.latency_p99_s);
    submitted += node.frames_submitted;
    reconstructed += node.windows_reconstructed;
    iterations += node.iterations_total;
  }
  EXPECT_EQ(report.frames_submitted, submitted);
  EXPECT_EQ(report.windows_reconstructed, reconstructed);
  EXPECT_EQ(report.windows_reconstructed, kNodes * kWindows);
  EXPECT_DOUBLE_EQ(report.iterations_total, iterations);
  EXPECT_GT(report.mean_iterations(), 0.0);
  EXPECT_LE(report.latency_p50_s, report.latency_p95_s);
  EXPECT_LE(report.latency_p95_s, report.latency_p99_s);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(FleetTest, MatchesDirectDecoderExactly) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  const auto config = fast_config();
  constexpr std::size_t kWindows = 4;
  const auto frames = encode_stream(config, book, db, kWindows);

  // Reference: the same frames through a plain Decoder on this thread.
  std::vector<std::vector<float>> reference;
  {
    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    for (const auto& frame : frames) {
      const auto packet = core::Packet::parse(frame);
      ASSERT_TRUE(packet.has_value());
      ASSERT_TRUE(decoder.decode_measurements_into(*packet, y));
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      reference.push_back(window.samples);
    }
  }

  std::mutex mutex;
  std::map<std::uint16_t, std::vector<float>> delivered;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.emplace(window.sequence,
                      std::vector<float>(window.samples.begin(),
                                         window.samples.end()));
    EXPECT_FALSE(window.concealed);
    EXPECT_GT(window.iterations, 0u);
  };

  FleetConfig fleet_config;
  fleet_config.workers = 2;
  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);
  for (const auto& frame : frames) {
    fleet.submit(0, std::vector<std::uint8_t>(frame));
  }
  fleet.finish();

  ASSERT_EQ(delivered.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto& got = delivered.at(static_cast<std::uint16_t>(w));
    ASSERT_EQ(got.size(), reference[w].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Same code path, same data, one FP environment: exact match.
      EXPECT_EQ(got[i], reference[w][i]) << "window " << w << " sample " << i;
    }
  }
}

// Decoders of one profile share one immutable Phi, and the operators'
// scratch is per thread, so workers decoding concurrently through it must
// reproduce a lone thread's output bit for bit: single-row solves (the
// 1-lane gathers) and a 6-window panel (a 4-lane group plus a 2-wide
// one). The name keeps it in scripts/check_sanitize.sh --tsan's default
// filter.
TEST(FleetSharedPhi, ConcurrentDecodersMatchSingleThreadBitwise) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  config.prior.weighted_l1 = true;
  config.prior.support_tolerance = 1e-4;
  constexpr std::size_t kWindows = 6;
  const auto frames = encode_stream(config, book, db, kWindows);
  const std::size_t m = config.cs.measurements;

  const auto decode_all = [&] {
    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    std::vector<std::int32_t> flat;
    std::vector<std::vector<float>> out;
    core::DecodedWindow<float> window;
    for (const auto& frame : frames) {
      const auto packet = core::Packet::parse(frame);
      if (!packet || !decoder.decode_measurements_into(*packet, y)) {
        return out;
      }
      flat.insert(flat.end(), y.begin(), y.end());
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      out.push_back(window.samples);
    }
    std::vector<core::DecodedWindow<float>> panel(kWindows);
    decoder.reconstruct_batch_into<float>(
        std::span<const std::int32_t>(flat.data(), kWindows * m), kWindows,
        workspace, std::span<core::DecodedWindow<float>>(panel));
    for (const auto& w : panel) {
      out.push_back(w.samples);
    }
    return out;
  };

  const auto reference = decode_all();
  ASSERT_EQ(reference.size(), 2 * kWindows);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<float>>> got(kThreads);
  std::vector<const linalg::SparseBinaryMatrix*> phis(kThreads, nullptr);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Build every decoder first so all of them hold Phi while they run.
      core::Decoder probe(config, book);
      phis[t] = &probe.sensing().sparse();
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      got[t] = decode_all();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    EXPECT_EQ(phis[t], phis[0]);
    ASSERT_EQ(got[t].size(), reference.size());
    for (std::size_t w = 0; w < reference.size(); ++w) {
      EXPECT_EQ(got[t][w], reference[w]) << "window " << w;
    }
  }
}

TEST(FleetTest, WarmPolicyMatchesDirectDecoderExactly) {
  // The prior-aware parity contract: a fleet running warm starts +
  // weighted l1 delivers bitwise what a direct decoder under the same
  // policy produces — the prior chain survives the worker scheduling.
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  auto config = fast_config();
  config.max_iterations = 2000;  // let convergence, not the cap, stop it
  config.tolerance = 1e-5;       // tight enough for the prior to pay off
  config.prior.warm_start = true;
  config.prior.weighted_l1 = true;
  config.prior.support_tolerance = 1e-4;
  constexpr std::size_t kWindows = 5;
  const auto frames = encode_stream(config, book, db, kWindows);

  std::vector<std::vector<float>> reference;
  const auto decode_all = [&](const core::DecoderConfig& cfg,
                              std::vector<std::vector<float>>* out) {
    core::Decoder decoder(cfg, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    std::size_t iterations = 0;
    for (const auto& frame : frames) {
      const auto packet = core::Packet::parse(frame);
      EXPECT_TRUE(packet.has_value());
      EXPECT_TRUE(decoder.decode_measurements_into(*packet, y));
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      if (out != nullptr) {
        out->push_back(window.samples);
      }
      iterations += window.iterations;
    }
    return iterations;
  };
  const std::size_t warm_total = decode_all(config, &reference);
  auto cold_config = config;
  cold_config.prior = core::PriorPolicy{};
  // The warm chain must actually be engaged: across the stream the
  // prior-aware policy spends fewer iterations than the cold one.
  EXPECT_LT(warm_total, decode_all(cold_config, nullptr));

  std::mutex mutex;
  std::map<std::uint16_t, std::vector<float>> delivered;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.emplace(window.sequence,
                      std::vector<float>(window.samples.begin(),
                                         window.samples.end()));
    EXPECT_FALSE(window.concealed);
  };

  FleetConfig fleet_config;
  fleet_config.workers = 2;
  fleet_config.prior = config.prior;
  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);
  for (const auto& frame : frames) {
    fleet.submit(0, std::vector<std::uint8_t>(frame));
  }
  fleet.finish();

  ASSERT_EQ(delivered.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto& got = delivered.at(static_cast<std::uint16_t>(w));
    ASSERT_EQ(got.size(), reference[w].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[w][i]) << "window " << w << " sample " << i;
    }
  }
}

TEST(FleetTest, ConcealmentInvalidatesWarmPriorForExactResume) {
  // A concealed window breaks the neighbour chain: the first
  // reconstruction after the gap must solve cold, landing bitwise where
  // a direct decoder that also dropped its prior at the gap lands.
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  auto config = fast_config();
  config.prior.warm_start = true;
  config.cs.keyframe_interval = 1;  // keyframes at 0, 2, 4 — drop the diff
  constexpr std::size_t kWindows = 6;
  constexpr std::size_t kDropped = 3;
  const auto frames = encode_stream(config, book, db, kWindows);

  std::vector<std::vector<float>> reference;
  {
    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (w == kDropped) {
        decoder.invalidate_prior();  // what the fleet's conceal() does
        reference.emplace_back();
        continue;
      }
      const auto packet = core::Packet::parse(frames[w]);
      ASSERT_TRUE(packet.has_value());
      ASSERT_TRUE(decoder.decode_measurements_into(*packet, y));
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      reference.push_back(window.samples);
    }
  }

  std::mutex mutex;
  std::map<std::uint16_t, std::vector<float>> delivered;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!window.concealed) {
      delivered.emplace(window.sequence,
                        std::vector<float>(window.samples.begin(),
                                           window.samples.end()));
    }
  };

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  fleet_config.prior = config.prior;
  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kDropped) {
      continue;  // the channel ate this frame
    }
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  const FleetReport report = fleet.finish();
  EXPECT_EQ(report.windows_concealed, 1u);

  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kDropped) {
      continue;
    }
    const auto& got = delivered.at(static_cast<std::uint16_t>(w));
    ASSERT_EQ(got.size(), reference[w].size()) << "window " << w;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[w][i]) << "window " << w << " sample " << i;
    }
  }
}

TEST(FleetTest, BackpressureKeepsQueueBounded) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  constexpr std::size_t kNodes = 2;
  constexpr std::size_t kWindows = 6;
  constexpr std::size_t kDepth = 3;

  FleetConfig fleet_config;
  fleet_config.workers = 1;  // slowest drain: submit() must block
  fleet_config.queue_depth = kDepth;

  std::atomic<std::size_t> delivered{0};
  FleetCoordinator fleet(fleet_config,
                         [&](const FleetWindow&) { ++delivered; });
  std::vector<std::vector<std::vector<std::uint8_t>>> streams;
  for (std::size_t node = 0; node < kNodes; ++node) {
    core::DecoderConfig config = fast_config();
    config.cs.seed += node;
    streams.push_back(encode_stream(config, book, db, kWindows));
    fleet.add_node(config, book);
  }
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t node = 0; node < kNodes; ++node) {
      fleet.submit(static_cast<std::uint32_t>(node),
                   std::vector<std::uint8_t>(streams[node][w]));
    }
  }
  const FleetReport report = fleet.finish();
  EXPECT_EQ(delivered.load(), kNodes * kWindows);
  EXPECT_EQ(report.windows_reconstructed, kNodes * kWindows);
  EXPECT_GE(report.queue_high_water, 1u);
  EXPECT_LE(report.queue_high_water, kDepth);
}

TEST(FleetTest, LostFrameIsConcealedWithLastGoodWindow) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  // Alternating keyframe/differential stream (keyframes at 0, 2, 4):
  // dropping the differential at 3 costs exactly one concealment because
  // the absolute frame right after re-syncs the chain.
  config.cs.keyframe_interval = 1;
  constexpr std::size_t kWindows = 6;
  constexpr std::size_t kDropped = 3;
  const auto frames = encode_stream(config, book, db, kWindows);

  std::mutex mutex;
  std::vector<std::pair<std::uint16_t, bool>> order;  // (sequence, concealed)
  std::vector<float> before_gap;
  std::vector<float> at_gap;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    order.emplace_back(window.sequence, window.concealed);
    if (window.sequence == kDropped - 1) {
      before_gap.assign(window.samples.begin(), window.samples.end());
    }
    if (window.sequence == kDropped) {
      at_gap.assign(window.samples.begin(), window.samples.end());
    }
  };

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kDropped) {
      continue;  // the channel ate this frame
    }
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, kWindows - 1);
  EXPECT_EQ(report.windows_concealed, 1u);
  ASSERT_EQ(order.size(), kWindows);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, static_cast<std::uint16_t>(i));
    EXPECT_EQ(order[i].second, i == kDropped);
  }
  // Hold-last concealment: the gap replays the last good reconstruction.
  EXPECT_EQ(at_gap, before_gap);
}

TEST(FleetTest, CorruptFrameIsCountedAndConcealed) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  config.cs.keyframe_interval = 1;
  constexpr std::size_t kWindows = 5;
  auto frames = encode_stream(config, book, db, kWindows);
  // Corrupt the differential at 3 (keyframes are 0, 2, 4): it fails the
  // CRC on arrival, is abandoned, and the keyframe after it re-syncs.
  frames[3][frames[3].size() / 2] ^= 0x5a;

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config);
  fleet.add_node(config, book);
  for (auto& frame : frames) {
    fleet.submit(0, std::move(frame));
  }
  const FleetReport report = fleet.finish();
  EXPECT_EQ(report.frames_corrupt, 1u);
  EXPECT_EQ(report.windows_reconstructed, kWindows - 1);
  EXPECT_EQ(report.windows_concealed, 1u);
}

TEST(FleetTest, LifecycleChecks) {
  const auto book = core::default_difference_codebook();
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config);
  EXPECT_THROW(fleet.submit(0, {}), Error);  // no such node
  fleet.add_node(fast_config(), book);
  fleet.finish();
  EXPECT_FALSE(fleet.submit(0, {}));         // closed: rejected, not lost
  EXPECT_THROW(fleet.finish(), Error);       // finish() is one-shot

  FleetConfig bad = fleet_config;
  bad.workers = 0;
  EXPECT_THROW(FleetCoordinator fleet2(bad), Error);
}

// ------------------------------------------- v1 heterogeneous profiles --

TEST(FleetTest, HeterogeneousCrProfilesDecodeInOrder) {
  // Three nodes at the paper's CR extremes and middle, each a full v1
  // StreamSession: the gateway learns every node's geometry from its
  // in-band announcement and decodes all three streams per-node in-order
  // (with FleetWindow.sequence mapped back to input-window indices).
  const auto db = small_db();
  const auto& record = db.mote(0);
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kWindows = 5;
  const double crs[kNodes] = {30.0, 50.0, 70.0};

  FleetConfig fleet_config;
  fleet_config.workers = 3;

  std::vector<std::atomic<std::uint32_t>> next(kNodes);
  for (auto& n : next) {
    n.store(0);
  }
  std::atomic<bool> in_order{true};
  std::atomic<std::size_t> concealed{0};
  const auto sink = [&](const FleetWindow& window) {
    concealed += window.concealed;
    if (window.sequence != next[window.node_id].fetch_add(1)) {
      in_order = false;
    }
  };

  std::vector<std::unique_ptr<StreamSession>> sessions;
  FleetCoordinator fleet(
      fleet_config, sink,
      [&](std::uint32_t node_id, std::span<const FeedbackMessage> messages) {
        sessions[node_id]->on_feedback(messages);
      });
  for (std::size_t node = 0; node < kNodes; ++node) {
    const core::StreamProfile profile = core::profile_for_cr(crs[node]);
    sessions.push_back(std::make_unique<StreamSession>(profile));
    EXPECT_EQ(fleet.add_node(profile), node);
  }
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t node = 0; node < kNodes; ++node) {
      sessions[node]->send_window(
          std::span<const std::int16_t>(record.samples.data() + w * 512,
                                        512),
          [&, node](std::vector<std::uint8_t> frame) {
            fleet.submit(static_cast<std::uint32_t>(node),
                         std::move(frame));
          });
    }
  }
  const FleetReport report = fleet.finish();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(concealed.load(), 0u);
  EXPECT_EQ(report.profiles_applied, kNodes);
  EXPECT_EQ(report.windows_reconstructed, kNodes * kWindows);
  EXPECT_EQ(report.frames_rejected, 0u);
  for (const auto& stats : report.nodes) {
    // Announcement + data frames, all accounted.
    EXPECT_EQ(stats.frames_submitted, kWindows + 1);
    EXPECT_EQ(stats.windows_reconstructed, kWindows);
    EXPECT_EQ(stats.profiles_applied, 1u);
    EXPECT_EQ(next[stats.node_id].load(), kWindows);
  }
}

TEST(FleetTest, MidStreamCrSwitchKeepsPrdContinuity) {
  // A CR 50 -> 30 re-profile halfway through the stream: the in-band
  // announcement plus forced keyframe must hand the decoder over to the
  // new geometry with no concealed or garbage windows on either side of
  // the switch.
  const auto db = small_db();
  const auto& record = db.mote(1);
  constexpr std::size_t kWindows = 8;
  constexpr std::size_t kSwitchAt = 4;

  std::mutex mutex;
  std::map<std::uint16_t, double> prd_by_window;
  std::size_t concealed = 0;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    concealed += window.concealed;
    ASSERT_EQ(window.samples.size(), 512u);
    const std::size_t off = static_cast<std::size_t>(window.sequence) * 512;
    std::vector<double> original(512);
    std::vector<double> reconstructed(512);
    for (std::size_t i = 0; i < 512; ++i) {
      original[i] = static_cast<double>(record.samples[off + i]);
      reconstructed[i] = static_cast<double>(window.samples[i]);
    }
    prd_by_window[window.sequence] = ecg::prd(original, reconstructed);
  };

  std::unique_ptr<StreamSession> session;
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(
      fleet_config, sink,
      [&](std::uint32_t, std::span<const FeedbackMessage> messages) {
        session->on_feedback(messages);
      });
  const core::StreamProfile profile = core::profile_for_cr(50.0);
  session = std::make_unique<StreamSession>(profile);
  fleet.add_node(profile);

  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kSwitchAt) {
      session->set_profile(core::profile_for_cr(30.0));
    }
    session->send_window(
        std::span<const std::int16_t>(record.samples.data() + w * 512, 512),
        [&](std::vector<std::uint8_t> frame) {
          fleet.submit(0, std::move(frame));
        });
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(concealed, 0u);
  EXPECT_EQ(report.profiles_applied, 2u);
  EXPECT_EQ(report.windows_reconstructed, kWindows);
  ASSERT_EQ(prd_by_window.size(), kWindows);
  for (const auto& [w, prd] : prd_by_window) {
    // Every window — before, at and after the switch — reconstructs to
    // clinical-replay quality, not concealment-grade garbage.
    EXPECT_LT(prd, 60.0) << "window " << w;
    EXPECT_GT(prd, 0.0) << "window " << w;
  }
  // CR 30 keeps 70 % of the samples' worth of measurements: fidelity
  // after the switch must be no worse on average than before it.
  double before = 0.0;
  double after = 0.0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    (w < kSwitchAt ? before : after) +=
        prd_by_window.at(static_cast<std::uint16_t>(w));
  }
  EXPECT_LT(after / (kWindows - kSwitchAt), before / kSwitchAt + 5.0);
}

// ------------------------------------------ differential: batch widths --

namespace {

/// One sink delivery with its samples' bit patterns, so two receivers
/// compare bit for bit (NaN and -0.0 included).
struct Delivery {
  std::uint32_t node_id = 0;
  std::uint16_t sequence = 0;
  std::uint16_t wire_sequence = 0;
  std::uint8_t lead = 0;
  bool concealed = false;
  std::size_t iterations = 0;
  std::vector<std::uint32_t> bits;

  static Delivery of(const FleetWindow& window) {
    Delivery d;
    d.node_id = window.node_id;
    d.sequence = window.sequence;
    d.wire_sequence = window.wire_sequence;
    d.lead = window.lead;
    d.concealed = window.concealed;
    d.iterations = window.iterations;
    d.bits.resize(window.samples.size());
    std::memcpy(d.bits.data(), window.samples.data(),
                window.samples.size() * sizeof(float));
    return d;
  }

  bool operator==(const Delivery&) const = default;
};

std::vector<std::uint32_t> float_bits(std::span<const float> samples) {
  std::vector<std::uint32_t> bits(samples.size());
  std::memcpy(bits.data(), samples.data(), samples.size() * sizeof(float));
  return bits;
}

/// The deterministic half of two receive ledgers must agree (host
/// reconstruct time is the only field a receiver's timing can move).
void expect_same_ledger(const CoordinatorStats& got,
                        const CoordinatorStats& want) {
  EXPECT_EQ(got.frames_corrupt, want.frames_corrupt);
  EXPECT_EQ(got.frames_rejected, want.frames_rejected);
  EXPECT_EQ(got.frames_discarded, want.frames_discarded);
  EXPECT_EQ(got.windows_reconstructed, want.windows_reconstructed);
  EXPECT_EQ(got.windows_concealed, want.windows_concealed);
  EXPECT_EQ(got.windows_shed_concealed, want.windows_shed_concealed);
  EXPECT_EQ(got.profiles_applied, want.profiles_applied);
  EXPECT_EQ(got.iterations_total, want.iterations_total);
  EXPECT_EQ(got.modelled_seconds_total, want.modelled_seconds_total);
}

/// The frame ledger FleetNodeStats documents, for clean in-order traffic
/// without duplicates.
void expect_ledger_closes(const FleetReport& report, std::size_t leads) {
  EXPECT_EQ(report.frames_submitted,
            leads * (report.windows_reconstructed +
                     report.windows_shed_concealed) +
                report.frames_rejected + report.frames_corrupt +
                report.frames_discarded);
}

}  // namespace

TEST(FleetTest, DecodeBatchWidthsDeliverTheSameWindows) {
  // One cold v1 stream that re-profiles CR 50 -> 30 halfway, with one
  // data frame lost, one that fails its CRC and one that passes it but
  // does not decode, through a bare Coordinator on this thread and
  // 1-worker fleets at every panel width: decode_batch changes how the
  // windows are solved, never what reaches the sink or the report, and
  // the fleet receives exactly as its per-node Coordinator does alone.
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 32.0;
  const ecg::SyntheticDatabase db(db_config);
  const auto& record = db.mote(0);
  const auto book = core::default_difference_codebook();
  constexpr std::size_t kWindows = 12;
  constexpr std::size_t kSwitchAt = 6;
  core::StreamProfile before = core::profile_for_cr(50.0);
  before.keyframe_interval = 2;  // keyframes at w0, w3 | w6, w9
  core::StreamProfile after = core::profile_for_cr(30.0);
  after.keyframe_interval = 2;

  std::vector<std::vector<std::uint8_t>> frames;
  StreamSession session(before);
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kSwitchAt) {
      session.set_profile(after);
    }
    session.send_window(
        std::span<const std::int16_t>(record.samples.data() + w * 512, 512),
        [&](std::vector<std::uint8_t> frame) {
          frames.push_back(std::move(frame));
        });
  }
  // [profile 50, w0..w5, profile 30, w6..w11]
  ASSERT_EQ(frames.size(), kWindows + 2);
  constexpr std::size_t kLost = 2;       // w1
  constexpr std::size_t kTruncated = 5;  // w4
  constexpr std::size_t kCorrupt = 10;   // w8
  {
    auto packet = core::Packet::parse(frames[kTruncated]);
    ASSERT_TRUE(packet.has_value());
    packet->payload.resize(packet->payload.size() / 2);
    frames[kTruncated] = packet->serialize();
  }
  frames[kCorrupt][frames[kCorrupt].size() / 2] ^= 0x10;
  const auto blocker = encode_stream(fast_config(), book, db, 1).front();

  // Give a gap up one tick after it shows, so concealments and the
  // windows released behind them interleave with live dispatches.
  ArqConfig arq;
  arq.max_retries = 0;
  arq.retry_timeout = 1.0;

  // The reference: the same frames through a bare Coordinator.
  std::vector<Delivery> reference;
  Coordinator bare(fast_config(), book, arq);
  {
    Coordinator::Wiring wiring;
    wiring.deliver = [&](const FleetWindow& window) {
      reference.push_back(Delivery::of(window));
    };
    bare.wire(std::move(wiring));
    solvers::SolverWorkspace workspace;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f != kLost) {
        bare.receive(std::vector<std::uint8_t>(frames[f]), workspace,
                     /*conceal_only=*/false);
      }
    }
    bare.finish(workspace, /*conceal_only=*/false);
  }
  const CoordinatorStats& stream = bare.stats();
  EXPECT_EQ(stream.profiles_applied, 2u);
  EXPECT_EQ(stream.frames_corrupt, 1u);
  EXPECT_EQ(stream.frames_rejected, 3u);  // w2 behind w1, w4, w5 behind w4
  EXPECT_EQ(stream.windows_reconstructed, 7u);
  EXPECT_EQ(stream.windows_concealed, 5u);  // w1, w2, w4, w5, w8
  ASSERT_EQ(reference.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    EXPECT_EQ(reference[w].sequence, w);
  }

  const auto run = [&](std::size_t batch, std::vector<Delivery>& out,
                       std::vector<double>& decode_seconds) {
    FleetConfig fleet_config;
    fleet_config.workers = 1;
    fleet_config.decode_batch = batch;
    fleet_config.arq = arq;
    // Node 1 holds the only worker in the sink until node 0's frames
    // are all queued, so node 0 is drained decode_batch frames per
    // dispatch whatever the host's timing.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool held = false;
    bool open = false;
    FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
      if (window.node_id == 1) {
        std::unique_lock<std::mutex> lock(gate_mutex);
        held = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return open; });
        return;
      }
      out.push_back(Delivery::of(window));
      decode_seconds.push_back(window.decode_seconds);
    });
    fleet.add_node(fast_config(), book);
    fleet.add_node(fast_config(), book);
    fleet.submit(1, std::vector<std::uint8_t>(blocker));
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return held; });
    }
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f != kLost) {
        fleet.submit(0, std::vector<std::uint8_t>(frames[f]));
      }
    }
    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      open = true;
    }
    gate_cv.notify_all();
    return fleet.finish();
  };

  std::vector<Delivery> first;
  std::vector<double> unused;
  const FleetReport expected = run(1, first, unused);
  EXPECT_TRUE(first == reference);
  expect_same_ledger(expected.nodes[0], stream);

  for (std::size_t batch = 2; batch <= 4; ++batch) {
    SCOPED_TRACE("decode_batch " + std::to_string(batch));
    std::vector<Delivery> got;
    std::vector<double> decode_seconds;
    const FleetReport report = run(batch, got, decode_seconds);
    EXPECT_TRUE(got == reference);
    expect_same_ledger(report.nodes[0], stream);
    EXPECT_EQ(report.frames_submitted, expected.frames_submitted);
    EXPECT_EQ(report.frames_corrupt, expected.frames_corrupt);
    EXPECT_EQ(report.frames_rejected, expected.frames_rejected);
    EXPECT_EQ(report.frames_discarded, expected.frames_discarded);
    EXPECT_EQ(report.windows_reconstructed, expected.windows_reconstructed);
    EXPECT_EQ(report.windows_concealed, expected.windows_concealed);
    EXPECT_EQ(report.windows_shed_concealed,
              expected.windows_shed_concealed);
    EXPECT_EQ(report.profiles_applied, expected.profiles_applied);
    EXPECT_EQ(report.deadline_misses, expected.deadline_misses);
    EXPECT_EQ(report.iterations_total, expected.iterations_total);
    // Windows solved by one panel share its time evenly: some panel
    // must have held more than one window.
    std::size_t shared = 0;
    for (std::size_t i = 1; i < got.size(); ++i) {
      shared += !got[i].concealed && !got[i - 1].concealed &&
                decode_seconds[i] == decode_seconds[i - 1];
    }
    EXPECT_GE(shared, 1u);
  }
}

// ----------------------------------- ring buffer close()-while-blocked --

// Races close() against producers blocked on a full buffer and consumers
// blocked on an empty one, across a spread of timings. Invariant: every
// push() that reported success is eventually pop()ed by someone — close
// may reject items but must never drop or duplicate accepted ones.
// TSan (scripts/check_sanitize.sh --tsan) checks the synchronization.
TEST(RingBufferRaceTest, CloseRacesBlockedProducersAndConsumers) {
  constexpr int kRounds = 25;
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  for (int round = 0; round < kRounds; ++round) {
    RingBuffer<int> buffer(2);
    std::atomic<int> produced{0};
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10000; ++i) {
          if (!buffer.push(i)) {
            return;  // closed while (possibly) blocked on full
          }
          produced.fetch_add(1);
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (buffer.pop().has_value()) {  // blocks on empty
          consumed.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20 * round));
    buffer.close();
    for (auto& thread : threads) {
      thread.join();
    }
    // close() drains: accepted items all come out, then pop() ends.
    EXPECT_EQ(produced.load(), consumed.load()) << "round " << round;
    EXPECT_FALSE(buffer.try_pop().has_value());
    EXPECT_TRUE(buffer.closed());
  }
}

// ---------------------------------------------- gateway building blocks --

namespace {
// Spins until the fleet queue is empty (the single worker has picked up
// everything) or the deadline passes.
void wait_queue_empty(const FleetCoordinator& fleet) {
  for (int spin = 0; spin < 5000 && fleet.queued() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void wait_delivered(const std::atomic<std::size_t>& delivered,
                    std::size_t target) {
  for (int spin = 0; spin < 5000 && delivered.load() < target; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}
}  // namespace

TEST(FleetTest, TrySubmitRefusesFullQueueWithoutBlockingAndRecycles) {
  const auto db = small_db();
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  config.cs.keyframe_interval = 1;  // all absolute: order-independent
  constexpr std::size_t kDepth = 2;
  const auto frames = encode_stream(config, book, db, kDepth + 2);

  // Gate the sink so the one worker blocks mid-delivery; the queue then
  // fills deterministically and the refusal path is forced.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  const auto sink = [&](const FleetWindow&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  fleet_config.queue_depth = kDepth;
  std::mutex recycle_mutex;
  std::vector<std::vector<std::uint8_t>> recycled;
  fleet_config.frame_recycler = [&](std::vector<std::uint8_t>&& buffer) {
    std::lock_guard<std::mutex> lock(recycle_mutex);
    recycled.push_back(std::move(buffer));
  };

  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);

  // Frame 0 is pulled by the worker (which then blocks in the sink),
  // frames 1..kDepth fill the queue to its bound.
  EXPECT_TRUE(fleet.try_submit(0, std::vector<std::uint8_t>(frames[0])));
  wait_queue_empty(fleet);
  ASSERT_EQ(fleet.queued(), 0u);
  for (std::size_t w = 1; w <= kDepth; ++w) {
    EXPECT_TRUE(fleet.try_submit(0, std::vector<std::uint8_t>(frames[w])));
  }
  EXPECT_EQ(fleet.queued(), kDepth);

  // Full queue: the refusal must return immediately (no backpressure
  // stall) and hand the untouched buffer to the recycler.
  const auto& refused = frames[kDepth + 1];
  EXPECT_FALSE(fleet.try_submit(0, std::vector<std::uint8_t>(refused)));
  EXPECT_EQ(fleet.queued(), kDepth);
  {
    std::lock_guard<std::mutex> lock(recycle_mutex);
    bool found = false;
    for (const auto& buffer : recycled) {
      found = found || buffer == refused;
    }
    EXPECT_TRUE(found) << "refused frame was not recycled";
  }

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  const FleetReport report = fleet.finish();
  // The refused frame never entered the pipeline; the admitted ones all
  // decoded.
  EXPECT_EQ(report.frames_submitted, kDepth + 1);
  EXPECT_EQ(report.windows_reconstructed, kDepth + 1);
  EXPECT_LE(report.queue_high_water, kDepth);
}

TEST(FleetTest, ConcealOnlyModeKeepsDifferentialChainForExactResume) {
  // 32 s = 16 windows: room for a 9-window stream (small_db holds 8).
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 32.0;
  const ecg::SyntheticDatabase db(db_config);
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  config.cs.keyframe_interval = 100;  // keyframe at 0 only: 1.. are all
                                      // differential, so an exact decode
                                      // after the shed run proves the
                                      // entropy chain kept advancing
  constexpr std::size_t kWindows = 9;
  const auto frames = encode_stream(config, book, db, kWindows);

  // Reference: every window through a plain Decoder.
  std::vector<std::vector<float>> reference;
  {
    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    for (const auto& frame : frames) {
      const auto packet = core::Packet::parse(frame);
      ASSERT_TRUE(packet.has_value());
      ASSERT_TRUE(decoder.decode_measurements_into(*packet, y));
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      reference.push_back(window.samples);
    }
  }

  std::mutex mutex;
  std::map<std::uint16_t, std::pair<bool, std::vector<float>>> delivered;
  std::atomic<std::size_t> count{0};
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.emplace(window.sequence,
                      std::make_pair(window.concealed,
                                     std::vector<float>(
                                         window.samples.begin(),
                                         window.samples.end())));
    ++count;
  };

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config, sink);
  fleet.add_node(config, book);

  // Full decode for 0..2, conceal-only (the tier-1 shed) for 3..5, full
  // again for 6..8. Draining between switches makes the mode boundary
  // frame-exact.
  for (std::size_t w = 0; w < 3; ++w) {
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  wait_delivered(count, 3);
  fleet.set_decode_mode(FleetCoordinator::DecodeMode::kConcealOnly);
  for (std::size_t w = 3; w < 6; ++w) {
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  wait_delivered(count, 6);
  fleet.set_decode_mode(FleetCoordinator::DecodeMode::kFull);
  for (std::size_t w = 6; w < kWindows; ++w) {
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, 6u);
  EXPECT_EQ(report.windows_concealed, 3u);
  EXPECT_EQ(report.windows_shed_concealed, 3u);  // all shed, none lost
  ASSERT_EQ(delivered.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto& [concealed, samples] =
        delivered.at(static_cast<std::uint16_t>(w));
    EXPECT_EQ(concealed, w >= 3 && w < 6) << "window " << w;
    if (w < 3 || w >= 6) {
      // Differentials decode against the running measurement chain; an
      // exact match after the shed run is only possible if conceal-only
      // kept decoding the entropy layer while skipping reconstruction.
      ASSERT_EQ(samples.size(), reference[w].size());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i], reference[w][i])
            << "window " << w << " sample " << i;
      }
    }
  }
}

TEST(FleetTest, SustainedSheddingConvergesViaKeyframeResync) {
  // A gateway at kDropToKeyframe sheds whole differential runs at ingest
  // and never retransmits (retries are pointless — the gate would drop
  // them again). The per-node ARQ must treat the run as an ordinary
  // bounded gap: NACK, give up, conceal, and re-sync on the next
  // keyframe — not livelock waiting for frames that will never come.
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 32.0;  // 16 windows: covers the 12-window stream
  const ecg::SyntheticDatabase db(db_config);
  const auto book = core::default_difference_codebook();
  core::DecoderConfig config = fast_config();
  config.cs.keyframe_interval = 3;  // keyframes at 0, 4, 8
  constexpr std::size_t kWindows = 12;
  const auto frames = encode_stream(config, book, db, kWindows);

  // Reference for the post-resync tail: a direct decoder fed the same
  // gapped frame set (the shed run is absent, the keyframe at 8 resets
  // the measurement chain). Concealment never runs the solver, so the
  // fleet's decode history — and therefore its warm-started solutions —
  // must match this gap-aware reference exactly, window for window.
  std::map<std::size_t, std::vector<float>> reference;
  {
    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (w >= 5 && w < 8) {
        continue;
      }
      const auto packet = core::Packet::parse(frames[w]);
      ASSERT_TRUE(packet.has_value());
      ASSERT_TRUE(decoder.decode_measurements_into(*packet, y));
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      reference.emplace(w, window.samples);
    }
  }

  std::mutex mutex;
  std::vector<std::pair<std::uint16_t, bool>> order;  // (sequence, concealed)
  std::map<std::uint16_t, std::vector<float>> tail;
  const auto sink = [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    order.emplace_back(window.sequence, window.concealed);
    if (window.sequence >= 8) {
      tail.emplace(window.sequence,
                   std::vector<float>(window.samples.begin(),
                                      window.samples.end()));
    }
  };
  std::vector<FeedbackMessage> feedback_log;
  const auto feedback = [&](std::uint32_t,
                            std::span<const FeedbackMessage> messages) {
    std::lock_guard<std::mutex> lock(mutex);
    feedback_log.insert(feedback_log.end(), messages.begin(),
                        messages.end());
  };

  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config, sink, feedback);
  fleet.add_node(config, book);
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w >= 5 && w < 8) {
      continue;  // the shed run: dropped at the gateway's ingest gate
    }
    fleet.submit(0, std::vector<std::uint8_t>(frames[w]));
  }
  // finish() returning at all is the no-livelock claim: the abandoned
  // gap must conceal and release the buffered tail.
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, kWindows - 3);
  EXPECT_EQ(report.windows_concealed, 3u);
  ASSERT_EQ(order.size(), kWindows);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, static_cast<std::uint16_t>(i));
    EXPECT_EQ(order[i].second, i >= 5 && i < 8) << "window " << i;
  }
  // The receiver did ask: at least one NACK per shed sequence went out
  // (a real gateway at tier 2 suppresses these; the fleet layer must
  // still generate them).
  for (std::uint16_t seq = 5; seq < 8; ++seq) {
    std::size_t nacks = 0;
    for (const auto& message : feedback_log) {
      if (message.kind == FeedbackMessage::Kind::kNack &&
          message.sequence == seq) {
        ++nacks;
      }
    }
    EXPECT_GE(nacks, 1u) << "sequence " << seq << " was never NACKed";
  }
  // Exact convergence after the keyframe, not merely "something decoded".
  for (std::uint16_t w = 8; w < kWindows; ++w) {
    const auto& got = tail.at(w);
    const auto& want = reference.at(w);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "window " << w << " sample " << i;
    }
  }
}

// ----------------------------------------------------------- lead groups --

namespace {

constexpr std::size_t kGroupLeads = 3;

/// A 3-lead v2 profile at CR 50. Nodes registered from it run the
/// default solver settings, so the group tests keep their streams short.
core::StreamProfile group_profile() {
  return core::profile_for_cr(50.0).with_leads(kGroupLeads);
}

/// Serialized frames of `windows` group windows of one record's first
/// three leads: kGroupLeads frames per window, lead tags in order.
std::vector<std::vector<std::uint8_t>> encode_group_stream(
    std::size_t windows) {
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s = 16.0;
  db_config.leads = kGroupLeads;
  const ecg::SyntheticDatabase db(db_config);
  const auto leads = db.mote_lead_group(0);
  const core::StreamProfile profile = group_profile();
  const std::size_t n = profile.window;
  core::Encoder encoder(profile);
  std::vector<std::int16_t> flat(kGroupLeads * n);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t l = 0; l < kGroupLeads; ++l) {
      std::copy_n(leads[l]->samples.begin() +
                      static_cast<std::ptrdiff_t>(w * n),
                  n, flat.begin() + static_cast<std::ptrdiff_t>(l * n));
    }
    for (const core::Packet& packet : encoder.encode_group(flat)) {
      frames.push_back(packet.serialize());
    }
  }
  return frames;
}

/// Entropy-decodes group window \p w of \p frames through \p decoder.
bool decode_group_frames(core::Decoder& decoder,
                         const std::vector<std::vector<std::uint8_t>>& frames,
                         std::size_t w, std::vector<std::int32_t>& y) {
  std::vector<core::Packet> packets(kGroupLeads);
  for (std::size_t l = 0; l < kGroupLeads; ++l) {
    if (!core::Packet::parse_into(frames[w * kGroupLeads + l], packets[l])) {
      return false;
    }
  }
  return decoder.decode_group_measurements_into(
      std::span<const core::Packet>(packets), y);
}

}  // namespace

TEST(FleetGroupTest, DecodedGroupsMatchDirectDecoderBitwise) {
  constexpr std::size_t kWindows = 3;  // a keyframe and two differentials
  const auto frames = encode_group_stream(kWindows);

  std::vector<std::vector<std::vector<std::uint32_t>>> reference;
  std::vector<std::size_t> reference_iterations;
  {
    core::Decoder decoder(group_profile());
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    std::vector<core::DecodedWindow<float>> windows(kGroupLeads);
    for (std::size_t w = 0; w < kWindows; ++w) {
      ASSERT_TRUE(decode_group_frames(decoder, frames, w, y));
      decoder.reconstruct_group_into<float>(
          std::span<const std::int32_t>(y), workspace,
          std::span<core::DecodedWindow<float>>(windows));
      reference.emplace_back();
      for (const auto& window : windows) {
        reference.back().push_back(float_bits(window.samples));
      }
      reference_iterations.push_back(windows[0].iterations);
    }
  }

  // The same frames through a bare Coordinator on this thread: the
  // fleet's node must receive exactly as it does alone.
  std::vector<Delivery> bare_delivered;
  Coordinator bare(group_profile());
  {
    Coordinator::Wiring wiring;
    wiring.deliver = [&](const FleetWindow& window) {
      bare_delivered.push_back(Delivery::of(window));
    };
    bare.wire(std::move(wiring));
    solvers::SolverWorkspace workspace;
    for (const auto& frame : frames) {
      bare.receive(std::vector<std::uint8_t>(frame), workspace,
                   /*conceal_only=*/false);
    }
    bare.finish(workspace, /*conceal_only=*/false);
  }

  std::mutex mutex;
  std::vector<Delivery> delivered;
  FleetConfig fleet_config;
  fleet_config.workers = 2;
  FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(Delivery::of(window));
  });
  fleet.add_node(group_profile());
  for (const auto& frame : frames) {
    fleet.submit(0, std::vector<std::uint8_t>(frame));
  }
  const FleetReport report = fleet.finish();

  // One joint solve per group window; leads arrive together, in order.
  EXPECT_EQ(report.windows_reconstructed, kWindows);
  EXPECT_EQ(report.windows_concealed, 0u);
  expect_ledger_closes(report, kGroupLeads);
  EXPECT_TRUE(delivered == bare_delivered);
  expect_same_ledger(report.nodes[0], bare.stats());
  ASSERT_EQ(delivered.size(), kWindows * kGroupLeads);
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t l = 0; l < kGroupLeads; ++l) {
      const Delivery& got = delivered[w * kGroupLeads + l];
      SCOPED_TRACE("window " + std::to_string(w) + " lead " +
                   std::to_string(l));
      EXPECT_EQ(got.sequence, w);
      EXPECT_EQ(got.wire_sequence, w);
      EXPECT_EQ(got.lead, l);
      EXPECT_FALSE(got.concealed);
      EXPECT_EQ(got.iterations, reference_iterations[w]);
      EXPECT_TRUE(got.bits == reference[w][l]);
    }
  }
}

TEST(FleetGroupTest, LostLeadConcealsEveryLeadWithThePreviousGroup) {
  // Group 2 loses lead 1 in flight: its siblings are discarded and the
  // whole group conceals. Group 3 is a differential behind that gap, so
  // the decoder rejects it whole and it conceals too. Both stand-ins
  // repeat group 1 lead for lead.
  constexpr std::size_t kWindows = 4;
  const auto frames = encode_group_stream(kWindows);
  constexpr std::size_t kLostFrame = 2 * kGroupLeads + 1;

  std::mutex mutex;
  std::vector<Delivery> delivered;
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(Delivery::of(window));
  });
  fleet.add_node(group_profile());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (f != kLostFrame) {
      fleet.submit(0, std::vector<std::uint8_t>(frames[f]));
    }
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, 2u);
  EXPECT_EQ(report.windows_concealed, 2u);
  EXPECT_EQ(report.frames_discarded, kGroupLeads - 1);
  EXPECT_EQ(report.frames_rejected, kGroupLeads);
  expect_ledger_closes(report, kGroupLeads);
  ASSERT_EQ(delivered.size(), kWindows * kGroupLeads);
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t l = 0; l < kGroupLeads; ++l) {
      const Delivery& got = delivered[w * kGroupLeads + l];
      SCOPED_TRACE("window " + std::to_string(w) + " lead " +
                   std::to_string(l));
      EXPECT_EQ(got.sequence, w);
      EXPECT_EQ(got.lead, l);
      EXPECT_EQ(got.concealed, w >= 2);
      if (w >= 2) {
        EXPECT_TRUE(got.bits == delivered[kGroupLeads + l].bits);
      }
    }
  }
  // The leads are distinct signals, so a lead-for-lead repeat is not
  // the same stand-in three times over.
  EXPECT_FALSE(delivered[kGroupLeads].bits == delivered[kGroupLeads + 1].bits);
}

TEST(FleetGroupTest, ConcealOnlyShedsWholeGroupsAndResumesExactly) {
  // Shed groups 0 and 1, then decode group 2. The shed groups still
  // advance every lead's differential chain, so group 2 lands bitwise
  // where a direct decoder that entropy-decoded all three groups does.
  constexpr std::size_t kWindows = 3;
  constexpr std::size_t kShed = 2;
  const auto frames = encode_group_stream(kWindows);

  std::vector<std::vector<std::uint32_t>> reference;
  {
    core::Decoder decoder(group_profile());
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    for (std::size_t w = 0; w < kWindows; ++w) {
      ASSERT_TRUE(decode_group_frames(decoder, frames, w, y));
    }
    std::vector<core::DecodedWindow<float>> windows(kGroupLeads);
    decoder.reconstruct_group_into<float>(
        std::span<const std::int32_t>(y), workspace,
        std::span<core::DecodedWindow<float>>(windows));
    for (const auto& window : windows) {
      reference.push_back(float_bits(window.samples));
    }
  }

  std::mutex mutex;
  std::vector<Delivery> delivered;
  std::atomic<std::size_t> count{0};
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(Delivery::of(window));
    ++count;
  });
  fleet.add_node(group_profile());
  fleet.set_decode_mode(FleetCoordinator::DecodeMode::kConcealOnly);
  for (std::size_t f = 0; f < kShed * kGroupLeads; ++f) {
    fleet.submit(0, std::vector<std::uint8_t>(frames[f]));
  }
  wait_delivered(count, kShed * kGroupLeads);
  fleet.set_decode_mode(FleetCoordinator::DecodeMode::kFull);
  for (std::size_t f = kShed * kGroupLeads; f < frames.size(); ++f) {
    fleet.submit(0, std::vector<std::uint8_t>(frames[f]));
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, kWindows - kShed);
  EXPECT_EQ(report.windows_concealed, kShed);
  EXPECT_EQ(report.windows_shed_concealed, kShed);
  EXPECT_EQ(report.frames_rejected, 0u);
  expect_ledger_closes(report, kGroupLeads);
  ASSERT_EQ(delivered.size(), kWindows * kGroupLeads);
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t l = 0; l < kGroupLeads; ++l) {
      const Delivery& got = delivered[w * kGroupLeads + l];
      SCOPED_TRACE("window " + std::to_string(w) + " lead " +
                   std::to_string(l));
      EXPECT_EQ(got.sequence, w);
      EXPECT_EQ(got.lead, l);
      EXPECT_EQ(got.concealed, w < kShed);
      if (w >= kShed) {
        EXPECT_TRUE(got.bits == reference[l]);
      }
    }
  }
}

TEST(FleetGroupTest, TailPartialsConcealInSequenceOrderAcrossTheWrap) {
  // A 2-lead node with ARQ off gets lead 0 only of sequences 65534,
  // 65535, 0 and 1. No group completes, so finish() conceals all four —
  // oldest first across the 65535 -> 0 wrap, as the sink contract says.
  std::vector<Delivery> delivered;
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  fleet_config.arq.enabled = false;
  FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
    delivered.push_back(Delivery::of(window));
  });
  fleet.add_node(core::profile_for_cr(50.0).with_leads(2));
  const std::vector<std::uint16_t> sequences{65534, 65535, 0, 1};
  for (const std::uint16_t sequence : sequences) {
    core::Packet packet;
    packet.sequence = sequence;
    packet.kind = core::PacketKind::kDifferential;
    packet.lead = 0;
    packet.payload = {0x5A};
    fleet.submit(0, packet.serialize());
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_concealed, sequences.size());
  EXPECT_EQ(report.frames_discarded, sequences.size());
  ASSERT_EQ(delivered.size(), 2 * sequences.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    SCOPED_TRACE("delivery " + std::to_string(i));
    EXPECT_TRUE(delivered[i].concealed);
    EXPECT_EQ(delivered[i].wire_sequence, sequences[i / 2]);
    EXPECT_EQ(delivered[i].lead, i % 2);
  }
}

TEST(FleetGroupTest, StalePartialCannotCaptureAGroupHalfTheSpaceLater) {
  // A 3-lead node with ARQ off gets lead 0 only of sequence 0, then a
  // whole group numbered 32768, half the sequence space later. Neither
  // sequence precedes the other, so the stale partial must be discarded
  // on the new group's arrival, not taken for it: window 32768 decodes.
  const auto frames = encode_group_stream(1);
  std::vector<Delivery> delivered;
  FleetConfig fleet_config;
  fleet_config.workers = 1;
  fleet_config.arq.enabled = false;
  FleetCoordinator fleet(fleet_config, [&](const FleetWindow& window) {
    delivered.push_back(Delivery::of(window));
  });
  fleet.add_node(group_profile());
  fleet.submit(0, std::vector<std::uint8_t>(frames[0]));
  for (const auto& frame : frames) {
    auto packet = core::Packet::parse(frame);
    ASSERT_TRUE(packet.has_value());
    packet->sequence = 32768;
    fleet.submit(0, packet->serialize());
  }
  const FleetReport report = fleet.finish();

  EXPECT_EQ(report.windows_reconstructed, 1u);
  EXPECT_EQ(report.windows_concealed, 0u);
  EXPECT_EQ(report.frames_discarded, 1u);
  expect_ledger_closes(report, kGroupLeads);
  ASSERT_EQ(delivered.size(), kGroupLeads);
  for (std::size_t l = 0; l < kGroupLeads; ++l) {
    SCOPED_TRACE("lead " + std::to_string(l));
    EXPECT_FALSE(delivered[l].concealed);
    EXPECT_EQ(delivered[l].wire_sequence, 32768u);
    EXPECT_EQ(delivered[l].lead, l);
  }
}

}  // namespace
}  // namespace csecg::wbsn
