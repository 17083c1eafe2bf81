#include "csecg/wbsn/traffic_gen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "csecg/core/decoder.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/obs/timeline.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

namespace {

constexpr std::uint32_t kUnregistered = ~std::uint32_t{0};

/// splitmix64 finalizer — the model's only source of "randomness", so
/// every schedule is a pure function of (seed, node, tick).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CRC-16/CCITT over the raw float bytes: bitwise identity with the
/// reference decode, not a numeric tolerance.
std::uint16_t window_crc(std::span<const float> samples) {
  return core::crc16_ccitt(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(samples.data()),
      samples.size() * sizeof(float)));
}

}  // namespace

TrafficModel::TrafficModel(const TrafficConfig& config) : config_(config) {
  config_.streams = std::max<std::size_t>(1, config_.streams);
  config_.records = std::max<std::size_t>(1, config_.records);
  config_.clusters = std::max<std::size_t>(1, config_.clusters);
  config_.duty_period = std::max<std::size_t>(1, config_.duty_period);
  config_.duty_on =
      std::clamp<std::size_t>(config_.duty_on, 1, config_.duty_period);
  config_.windows_per_stream = std::max<std::size_t>(1, config_.windows_per_stream);
  config_.leads = std::clamp<std::size_t>(config_.leads, 1,
                                          core::StreamProfile::kMaxLeads);
  if (config_.crs.empty()) {
    config_.crs = {50.0};
  }
  const std::size_t leads = config_.leads;

  ecg::DatabaseConfig db_config;
  db_config.record_count = config_.records;
  db_config.duration_s = config_.record_seconds;
  db_config.seed = config_.seed;
  // The database always renders its MIT-BIH default pair, so the classic
  // single-lead streams stay bitwise identical when leads == 1.
  db_config.leads = std::max<std::size_t>(leads, db_config.leads);
  const ecg::SyntheticDatabase db(db_config);

  streams_.reserve(config_.streams);
  for (std::size_t s = 0; s < config_.streams; ++s) {
    EncodedStream stream;
    stream.profile = core::profile_for_cr(config_.crs[s % config_.crs.size()])
                         .with_leads(leads);
    stream.profile.keyframe_interval = config_.keyframe_interval;
    CSECG_CHECK(stream.profile.valid(), "soak stream profile unrealisable");

    // All leads of the record share one beat schedule, and lead 0 is the
    // classic mote record; the flat buffer is lead-major, the layout
    // encode_group expects.
    const auto group = db.mote_lead_group(s % config_.records);
    const std::size_t window = stream.profile.window;
    record_windows_ = group.front()->samples.size() / window;
    CSECG_CHECK(record_windows_ > 0, "record shorter than one window");
    std::vector<std::int16_t> flat(leads * window);

    core::Encoder encoder(stream.profile);
    stream.frames.reserve(config_.windows_per_stream * leads);
    for (std::size_t w = 0; w < config_.windows_per_stream; ++w) {
      const std::size_t r = w % record_windows_;
      for (std::size_t l = 0; l < leads; ++l) {
        std::copy(group[l]->samples.begin() +
                      static_cast<std::ptrdiff_t>(r * window),
                  group[l]->samples.begin() +
                      static_cast<std::ptrdiff_t>((r + 1) * window),
                  flat.begin() + static_cast<std::ptrdiff_t>(l * window));
      }
      for (core::Packet& packet : encoder.encode_group(flat)) {
        stream.frames.push_back(packet.serialize());
      }
    }

    // Reference decode through the same entry points the fleet workers
    // use (decode_group_measurements_into + reconstruct_group_into; a
    // single-lead window is the group of one), so goldens are bitwise,
    // not merely close. One golden per (*record* window, lead): the
    // stream repeats the record, the entropy stage is lossless and FISTA
    // is deterministic in (y, profile, backend), so window w
    // reconstructs identically to window w mod record_windows().
    core::Decoder reference(stream.profile);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    std::vector<core::Packet> packets(leads);
    std::vector<core::DecodedWindow<float>> outs(leads);
    const std::size_t goldens =
        std::min(record_windows_, config_.windows_per_stream);
    stream.golden_crc.reserve(goldens * leads);
    for (std::size_t w = 0; w < goldens; ++w) {
      for (std::size_t l = 0; l < leads; ++l) {
        CSECG_CHECK(core::Packet::parse_into(stream.frames[w * leads + l],
                                             packets[l]),
                    "generated frame failed to parse");
      }
      CSECG_CHECK(reference.decode_group_measurements_into(
                      std::span<const core::Packet>(packets), y),
                  "generated window failed reference decode");
      reference.reconstruct_group_into<float>(
          std::span<const std::int32_t>(y), workspace,
          std::span<core::DecodedWindow<float>>(outs));
      for (std::size_t l = 0; l < leads; ++l) {
        stream.golden_crc.push_back(window_crc(outs[l].samples));
      }
    }
    streams_.push_back(std::move(stream));
  }
}

bool TrafficModel::connected(std::size_t node, std::size_t tick) const {
  if (node >= config_.nodes) {
    return false;
  }
  const std::size_t cluster = node % config_.clusters;
  // The cluster sets the phase (so members burst together); per-node
  // jitter smears a cluster's arrivals over a quarter of its on-window
  // instead of one literal tick.
  const std::uint64_t base = mix64(config_.seed ^ (0xC10C0ULL + cluster));
  const std::uint64_t jitter_span =
      std::max<std::uint64_t>(1, config_.duty_on / 4);
  const std::uint64_t jitter =
      mix64(config_.seed ^ (0xA0DEULL + node)) % jitter_span;
  const std::size_t phase =
      static_cast<std::size_t>((base + jitter) % config_.duty_period);
  return (tick + phase) % config_.duty_period < config_.duty_on;
}

SoakResult run_soak(const SoakConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  SoakResult result;

  SoakConfig cfg = config;
  // The steady-phase allocation gate precludes per-window span records;
  // counters, stats and latency histograms all stay on.
  cfg.gateway.shard.trace_spans = false;

  // Flight dumps stream to cfg.flight_out under a harness mutex (dumps
  // fire from worker and ingest threads alike). Wired before the
  // gateway copies its config.
  std::mutex flight_mutex;
  if (cfg.flight_out != nullptr) {
    std::ostream* flight_os = cfg.flight_out;
    cfg.gateway.flight_dump_sink = [&flight_mutex, flight_os](
                                       std::size_t shard,
                                       const std::string& jsonl) {
      std::lock_guard<std::mutex> lock(flight_mutex);
      *flight_os << "{\"type\":\"flight_dump\",\"shard\":" << shard << "}\n"
                 << jsonl;
    };
  }

  const TrafficModel model(cfg.traffic);
  const std::vector<EncodedStream>& streams = model.streams();
  const std::size_t population = model.config().nodes;
  // Lead-group width (clamped by the model). Every group accounting
  // identity below carries this factor: one admitted group of L frames
  // decodes as one window unit and delivers L sink windows.
  const std::size_t leads = model.config().leads;

  const auto progress = [&](const std::string& line) {
    if (cfg.on_progress) {
      cfg.on_progress(line);
    }
  };

  // --- sink-side state (worker threads) ------------------------------
  struct SinkCounters {
    std::atomic<std::size_t> decoded{0};
    std::atomic<std::size_t> concealed{0};
    std::atomic<std::size_t> checked{0};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::uint64_t> first_mismatch{~std::uint64_t{0}};
  } sink;

  std::mutex reg_mutex;
  std::vector<std::uint32_t> gw_stream;  // gateway id -> stream index
  // gateway id -> windows fully decoded; gates the steady set (a node
  // must have decoded once — scratch warm, instruments created — before
  // it may appear in the measured phase).
  const auto decoded_by =
      std::make_unique<std::atomic<std::uint32_t>[]>(population);

  GatewayService gateway(cfg.gateway, [&](const FleetWindow& window) {
    if (window.concealed) {
      sink.concealed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sink.decoded.fetch_add(1, std::memory_order_relaxed);
    decoded_by[window.node_id].fetch_add(1, std::memory_order_relaxed);
    std::size_t stream_idx = 0;
    {
      std::lock_guard<std::mutex> lock(reg_mutex);
      stream_idx = gw_stream[window.node_id];
    }
    const EncodedStream& stream = streams[stream_idx];
    const std::uint16_t crc = window_crc(window.samples);
    const std::size_t golden =
        (window.sequence % (stream.golden_crc.size() / leads)) * leads +
        window.lead;
    sink.checked.fetch_add(1, std::memory_order_relaxed);
    if (crc != stream.golden_crc[golden]) {
      sink.mismatches.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t expected = ~std::uint64_t{0};
      sink.first_mismatch.compare_exchange_strong(
          expected,
          (static_cast<std::uint64_t>(window.node_id) << 16) | window.sequence,
          std::memory_order_relaxed);
    }
  });

  // Pre-fill the buffer pool past the maximum in-flight frame count;
  // with try_submit recycling refusals, the pool is conserved and
  // offer() never allocates a buffer.
  std::size_t max_frame = 0;
  for (const EncodedStream& stream : streams) {
    for (const auto& frame : stream.frames) {
      max_frame = std::max(max_frame, frame.size());
    }
  }
  const std::size_t depth = cfg.gateway.shard.queue_depth;
  // Lead groups hold up to leads-1 frames per node in the reassembly
  // map between worker dispatches, so the pool headroom scales with the
  // group width (identical to the classic sizing when leads == 1).
  gateway.reserve_frame_buffers(
      cfg.gateway.shards *
          (depth * leads +
           cfg.gateway.shard.workers * cfg.gateway.shard.decode_batch + 4),
      max_frame);

  // Live timeline over every shard registry. The priming sample warms
  // the stream buffer and the per-watch cursor caches, so later samples
  // — including those inside the measured steady phase — stay
  // allocation-free.
  std::unique_ptr<obs::Timeline> timeline;
  if (cfg.timeline_out != nullptr) {
    timeline = std::make_unique<obs::Timeline>(*cfg.timeline_out);
    for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
      timeline->watch("shard" + std::to_string(s), gateway.shard_registry(s));
    }
    timeline->sample();
  }
  const std::size_t timeline_every =
      std::max<std::size_t>(1, cfg.timeline_interval_ticks);
  std::size_t ticks_since_sample = 0;
  const auto telemetry_tick = [&] {
    if (timeline != nullptr && ++ticks_since_sample >= timeline_every) {
      ticks_since_sample = 0;
      timeline->sample();
    }
  };
  // Forced sample at a phase boundary.
  const auto telemetry_mark = [&] {
    if (timeline != nullptr) {
      ticks_since_sample = 0;
      timeline->sample();
    }
  };

  // --- driver-side state (this thread only) --------------------------
  struct NodeCursor {
    std::uint32_t gateway_id = kUnregistered;
    std::uint32_t next = 0;
  };
  std::vector<NodeCursor> cursors(population);

  const auto pace = [&](std::size_t shard) {
    const auto target = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(depth) *
                                    cfg.steady_occupancy));
    while (gateway.queued(shard) >= target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::size_t steady_sheds = 0;
  bool steady_phase = false;

  // Offers node's next frame (registering it on first contact when
  // \p allow_register). Returns false when the node was skipped.
  const auto offer_one = [&](std::size_t node, bool allow_register,
                             bool paced) -> bool {
    NodeCursor& cursor = cursors[node];
    const std::size_t stream_idx = model.stream_of(node);
    const EncodedStream& stream = streams[stream_idx];
    if (cursor.next >= stream.frames.size()) {
      return false;  // stream exhausted: the node has gone silent
    }
    if (cursor.gateway_id == kUnregistered) {
      if (!allow_register) {
        return false;  // cold node inside the measured phase
      }
      const std::uint32_t id = gateway.register_node(stream.profile);
      {
        std::lock_guard<std::mutex> lock(reg_mutex);
        CSECG_CHECK(id == gw_stream.size(), "gateway id not sequential");
        gw_stream.push_back(static_cast<std::uint32_t>(stream_idx));
      }
      cursor.gateway_id = id;
      ++result.nodes_registered;
    }
    if (paced) {
      pace(gateway.shard_of(cursor.gateway_id));
    }
    // A connected tick offers one whole window: leads frames
    // back-to-back on lead-group streams (each counted individually —
    // the admission tier may still split a group, which the fleet's
    // reassembler then conceals whole).
    for (std::size_t l = 0; l < leads; ++l) {
      const std::vector<std::uint8_t>& frame = stream.frames[cursor.next++];
      ++result.offered;
      if (steady_phase) {
        ++result.steady_offered;
      }
      switch (gateway.offer(cursor.gateway_id, frame)) {
        case OfferOutcome::kAdmitted:
          ++result.admitted;
          break;
        case OfferOutcome::kShedDropped:
          ++result.shed_dropped;
          if (steady_phase) {
            ++steady_sheds;
          }
          break;
        case OfferOutcome::kShedQueueFull:
          ++result.shed_queue_full;
          if (steady_phase) {
            ++steady_sheds;
          }
          break;
        case OfferOutcome::kClosed:
          result.failures.push_back("offer() returned kClosed mid-run");
          break;
      }
    }
    return true;
  };

  const auto drain = [&] {
    for (;;) {
      std::size_t total = 0;
      for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
        total += gateway.queued(s);
      }
      if (total == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // queued() hits zero while the last dispatch may still be decoding;
    // a short settle keeps the phase boundaries honest.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  // --- phase A: warm-up ----------------------------------------------
  // [0, W/2): unpaced cluster bursts overrun the queues; a forced
  // kDropToKeyframe slice guarantees the tier-2 shed path runs.
  const std::size_t warmup = cfg.warmup_ticks;
  const std::size_t force_begin = warmup / 4;
  const std::size_t burst_end = warmup / 2;
  for (std::size_t tick = 0; tick < burst_end; ++tick) {
    if (cfg.force_shed_in_warmup && tick == force_begin) {
      for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
        gateway.force_tier(s, DegradeTier::kDropToKeyframe);
      }
    }
    for (std::size_t node = 0; node < population; ++node) {
      if (model.connected(node, tick)) {
        offer_one(node, true, false);
      }
    }
    telemetry_tick();
    if (burst_end >= 4 && tick % (burst_end / 4) == 0) {
      progress("warmup tick " + std::to_string(tick) + "/" +
               std::to_string(burst_end) + ", offered " +
               std::to_string(result.offered) + ", shed " +
               std::to_string(result.shed_dropped + result.shed_queue_full));
    }
  }
  if (cfg.force_shed_in_warmup) {
    for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
      gateway.release_tier(s);
    }
  }
  drain();
  telemetry_mark();

  // Recovery: paced ticks until the controller walks every shard back to
  // kFullDecode. Each offer feeds a decision window, and drain-paced
  // occupancy votes clear, so this terminates in
  // O(tiers * hysteresis * decision_interval) offers per shard — bounded
  // here so a controller bug fails the tier gate instead of hanging.
  const auto all_clear = [&] {
    for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
      if (gateway.tier(s) != DegradeTier::kFullDecode) {
        return false;
      }
    }
    return true;
  };
  std::size_t now = burst_end;
  const std::size_t recovery_cap = burst_end + 4 * warmup + 64;
  while (!all_clear() && now < recovery_cap) {
    for (std::size_t node = 0; node < population; ++node) {
      if (model.connected(node, now)) {
        offer_one(node, true, true);
      }
    }
    telemetry_tick();
    ++now;
  }
  telemetry_mark();
  progress("tiers cleared after " + std::to_string(now - burst_end) +
           " recovery ticks");

  // Warm tail: paced full-decode ticks. This band is what the steady
  // phase replays — every node it connects decodes real windows here,
  // so its FISTA scratch, obs instruments and frame buffers all exist
  // before the measured phase begins.
  const std::size_t band_start = now;
  const std::size_t tail = std::max<std::size_t>(warmup - burst_end, 8);
  for (; now < band_start + tail; ++now) {
    for (std::size_t node = 0; node < population; ++node) {
      if (model.connected(node, now)) {
        offer_one(node, true, true);
      }
    }
    telemetry_tick();
  }
  const std::size_t band_len = now - band_start;
  drain();
  telemetry_mark();

  for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
    if (gateway.tier(s) != DegradeTier::kFullDecode) {
      result.failures.push_back(
          "shard " + std::to_string(s) +
          " still degraded entering the steady phase (tier " +
          std::string(degrade_tier_name(gateway.tier(s))) + ")");
    }
  }

  // --- phase B: measured steady state --------------------------------
  const std::size_t steady_decoded_before =
      sink.decoded.load(std::memory_order_relaxed);
  const std::size_t steady_concealed_before =
      sink.concealed.load(std::memory_order_relaxed);
  progress("steady phase: " + std::to_string(cfg.steady_ticks) +
           " paced ticks over " + std::to_string(result.nodes_registered) +
           " warm nodes");
  // Anomaly dumps render through an ostringstream; events keep
  // recording across the measured phase, only the dump path is
  // disarmed so the allocation gate sees a quiet recorder.
  gateway.set_flight_dumps_enabled(false);
  if (cfg.on_steady_begin) {
    cfg.on_steady_begin();
  }
  steady_phase = true;
  // The steady phase replays the warm tail's tick band cyclically: the
  // duty cycle then only ever connects nodes that already decoded inside
  // the band (cursors keep advancing, so the *frames* are new — only the
  // arrival pattern repeats). Walking forward in time instead would
  // rotate onto cold duty phases whenever steady_ticks < duty_period.
  for (std::size_t tick = 0; tick < cfg.steady_ticks; ++tick) {
    const std::size_t t =
        band_start + (band_len == 0 ? 0 : tick % band_len);
    for (std::size_t node = 0; node < population; ++node) {
      if (!model.connected(node, t)) {
        continue;
      }
      const NodeCursor& cursor = cursors[node];
      if (cursor.gateway_id == kUnregistered ||
          decoded_by[cursor.gateway_id].load(std::memory_order_relaxed) ==
              0) {
        ++result.steady_skipped;  // cold node: registering would allocate
        continue;
      }
      if (!offer_one(node, false, true)) {
        ++result.steady_skipped;  // stream exhausted
      }
    }
    telemetry_tick();
  }
  drain();
  steady_phase = false;
  if (cfg.on_steady_end) {
    cfg.on_steady_end();
  }
  gateway.set_flight_dumps_enabled(true);
  telemetry_mark();
  result.steady_delivered =
      (sink.decoded.load(std::memory_order_relaxed) -
       steady_decoded_before) +
      (sink.concealed.load(std::memory_order_relaxed) -
       steady_concealed_before);

  // --- finish + the accounting gates ---------------------------------
  result.report = gateway.finish();
  // Final epoch: the shard registries now hold the merged per-node
  // totals (finish() folds node sessions in), so the last timeline
  // lines carry the end-of-run truth.
  telemetry_mark();
  if (cfg.on_session) {
    cfg.on_session(gateway.session());
  }

  result.delivered_decoded = sink.decoded.load(std::memory_order_relaxed);
  result.delivered_concealed = sink.concealed.load(std::memory_order_relaxed);
  result.crc_checked = sink.checked.load(std::memory_order_relaxed);
  result.crc_mismatches = sink.mismatches.load(std::memory_order_relaxed);

  const auto fail = [&](const std::string& what) {
    result.failures.push_back(what);
  };
  const auto expect_eq = [&](std::size_t got, std::size_t want,
                             const char* what) {
    if (got != want) {
      fail(std::string(what) + ": " + std::to_string(got) +
           " != " + std::to_string(want));
    }
  };

  const GatewayReport& report = result.report;
  // Frame ledger, both sides of the API.
  if (!report.accounts_exactly()) {
    fail("gateway ledger does not balance: offered " +
         std::to_string(report.offered) + " != admitted " +
         std::to_string(report.admitted) + " + shed " +
         std::to_string(report.shed_dropped + report.shed_queue_full));
  }
  expect_eq(report.offered, result.offered, "offered (report vs harness)");
  expect_eq(report.admitted, result.admitted, "admitted (report vs harness)");
  expect_eq(report.shed_dropped, result.shed_dropped,
            "shed_dropped (report vs harness)");
  expect_eq(report.shed_queue_full, result.shed_queue_full,
            "shed_queue_full (report vs harness)");
  // Every admitted frame ends in exactly one bucket: the generator sends
  // no corrupt frames, no duplicates and no kProfile frames. A decoded
  // or shed group consumes leads frames per window unit; rejects are
  // counted in frame units, and frames stranded in a partial group whose
  // sequence was abandoned land in frames_discarded.
  expect_eq(report.admitted,
            leads * (report.windows_reconstructed +
                     report.windows_shed_concealed) +
                report.frames_rejected + report.frames_discarded,
            "admitted != leads*(decoded + shed_concealed) + rejected "
            "+ discarded");
  // Sink deliveries match the fleet stats one-for-one (a group window
  // delivers one FleetWindow per lead).
  expect_eq(result.delivered_decoded, leads * report.windows_reconstructed,
            "sink decoded vs report");
  expect_eq(result.delivered_concealed, leads * report.windows_concealed,
            "sink concealed vs report");
  // Concealments beyond shed_concealed + rejected stand in for frames
  // shed at ingest (ARQ gap abandonment) — bounded by the shed count.
  // All rejects in this clean-traffic harness consume whole groups, so
  // dividing by leads converts them back to window units exactly.
  const std::size_t explained =
      report.windows_shed_concealed + report.frames_rejected / leads;
  if (report.windows_concealed < explained) {
    fail("concealed < shed_concealed + rejected");
  } else {
    result.gap_concealments = report.windows_concealed - explained;
    if (result.gap_concealments >
        report.shed_dropped + report.shed_queue_full) {
      fail("gap concealments (" + std::to_string(result.gap_concealments) +
           ") exceed ingest sheds (" +
           std::to_string(report.shed_dropped + report.shed_queue_full) +
           ")");
    }
  }
  if (result.crc_mismatches > 0) {
    const std::uint64_t first =
        sink.first_mismatch.load(std::memory_order_relaxed);
    fail(std::to_string(result.crc_mismatches) +
         " CRC mismatches (first: node " + std::to_string(first >> 16) +
         " window " + std::to_string(first & 0xFFFF) + ")");
  }
  expect_eq(result.crc_checked, result.delivered_decoded,
            "every delivered decode CRC-checked");
  if (steady_sheds != 0) {
    fail("steady phase shed " + std::to_string(steady_sheds) + " frames");
  }
  if (result.steady_offered == 0) {
    // The steady-phase gates (zero sheds, zero allocations) would then
    // hold vacuously.
    fail("steady phase offered no frames — its gates measured nothing");
  }
  if (report.queue_high_water > depth) {
    fail("queue high-water " + std::to_string(report.queue_high_water) +
         " exceeds depth " + std::to_string(depth));
  }
  if (result.crc_checked == 0) {
    fail("no windows were CRC-checked — soak too small to prove anything");
  }
  if (report.shed_dropped + report.shed_queue_full +
          report.windows_shed_concealed ==
      0) {
    fail("no sheds occurred — overload path never exercised");
  }

  result.slo = GatewayService::slo_rows(report, depth);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace csecg::wbsn
