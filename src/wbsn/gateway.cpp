#include "csecg/wbsn/gateway.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <utility>

#include "csecg/core/packet.hpp"

namespace csecg::wbsn {

#if CSECG_OBS_ENABLED
namespace detail {

/// Fixed open table of in-flight ingest stamps for one node, keyed by
/// wire sequence. offer() put()s, the delivery sink take()s; both sides
/// are lock-free. 64 slots covers far more frames than one node ever
/// has in flight through a bounded shard queue; a slot collision simply
/// overwrites — the older window loses its stamp and is skipped, so the
/// e2e histogram is a (near-total) sample, never a blocking ledger.
class FrameStampTable {
 public:
  void put(std::uint16_t sequence, double t) {
    Entry& entry = entries_[sequence % kSlots];
    // Invalidate, write, publish: a concurrent take() either sees the
    // matching tag with a fully written time or no match at all.
    entry.tag.store(kEmpty, std::memory_order_relaxed);
    entry.time_s.store(t, std::memory_order_relaxed);
    entry.tag.store(sequence, std::memory_order_release);
  }

  bool take(std::uint16_t sequence, double& t) {
    Entry& entry = entries_[sequence % kSlots];
    if (entry.tag.load(std::memory_order_acquire) != sequence) {
      return false;
    }
    t = entry.time_s.load(std::memory_order_relaxed);
    // Re-check: an overwrite mid-read means the time belongs to a newer
    // frame.
    if (entry.tag.load(std::memory_order_relaxed) != sequence) {
      return false;
    }
    entry.tag.store(kEmpty, std::memory_order_relaxed);
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kSlots = 64;

  struct Entry {
    std::atomic<std::uint32_t> tag{kEmpty};
    std::atomic<double> time_s{0.0};
  };
  Entry entries_[kSlots];
};

}  // namespace detail
#endif  // CSECG_OBS_ENABLED

namespace {

/// splitmix64 finalizer: node id -> shard. A multiplicative avalanche,
/// so dense sequential ids (the common registration pattern) spread
/// uniformly instead of striping, and assignment is a pure function of
/// the id — stable across restarts, no table to coordinate.
std::size_t shard_index_of(std::uint32_t node_id, std::size_t shards) {
  std::uint64_t x = node_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

}  // namespace

const char* degrade_tier_name(DegradeTier tier) {
  switch (tier) {
    case DegradeTier::kFullDecode:
      return "full";
    case DegradeTier::kConcealOnly:
      return "conceal";
    case DegradeTier::kDropToKeyframe:
      return "drop";
  }
  return "?";
}

struct GatewayService::Shard {
  std::size_t index = 0;
  std::unique_ptr<FleetCoordinator> fleet;

  /// shard-local id -> gateway id. Guarded by map_mutex: registration
  /// can race worker-thread deliveries/feedback that translate back.
  std::mutex map_mutex;
  std::vector<std::uint32_t> global_ids;

  /// Current tier, readable lock-free from the ingest and worker sides.
  std::atomic<int> tier{static_cast<int>(DegradeTier::kFullDecode)};

  /// Controller state (streaks, pin) — ingest-side only, tiny sections.
  std::mutex ctl_mutex;
  bool pinned = false;
  std::size_t since_decision = 0;
  std::size_t raise_streak = 0;
  std::size_t clear_streak = 0;
  std::size_t tier_escalations = 0;
  std::size_t tier_clears = 0;

  /// Ingest ledger. Relaxed atomics: offer() may run from several
  /// threads, and exactness comes from each offer incrementing exactly
  /// one of admitted/shed_dropped/shed_queue_full.
  std::atomic<std::size_t> offered{0};
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> shed_dropped{0};
  std::atomic<std::size_t> shed_queue_full{0};
  std::atomic<std::size_t> nacks_suppressed{0};

#if CSECG_OBS_ENABLED
  /// Black box for this shard's anomalies (null when disabled).
  std::unique_ptr<obs::FlightRecorder> flight;
  /// Per-local-node ingest stamp tables; grown under map_mutex at
  /// registration, addressed directly from offer() via stamp_refs_.
  std::vector<std::unique_ptr<detail::FrameStampTable>> stamps;
  /// Live instruments in the shard fleet's aggregate registry: inline
  /// mirrors of the atomic ingest ledger plus the tier gauge and the
  /// e2e latency histogram, so a Timeline watching shard_registry()
  /// sees activity while the run is still going. finish() skips the
  /// post-merge re-adds for the mirrored counters (they are already in
  /// the fold).
  obs::Histogram* e2e_hist = nullptr;
  obs::Counter* live_offered = nullptr;
  obs::Counter* live_admitted = nullptr;
  obs::Counter* live_shed_dropped = nullptr;
  obs::Counter* live_shed_queue_full = nullptr;
  obs::Counter* live_nacks_suppressed = nullptr;
  obs::Gauge* tier_gauge = nullptr;
#endif

  DegradeTier current_tier() const {
    return static_cast<DegradeTier>(tier.load(std::memory_order_relaxed));
  }
};

GatewayService::GatewayService(const GatewayConfig& config, Sink sink,
                               FeedbackSink feedback)
    : config_(config),
      sink_(std::move(sink)),
      feedback_(std::move(feedback)),
      session_(config.clock) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    Shard* raw = shard.get();

    FleetConfig fleet_config = config_.shard;
    // The gateway owns frame pooling: workers return finished buffers
    // here and offer() refills them, so steady-state ingest allocates
    // nothing. Any recycler the caller put on the shard config is
    // replaced.
    fleet_config.frame_recycler = [this](std::vector<std::uint8_t>&& frame) {
      pool_put(std::move(frame));
    };

#if CSECG_OBS_ENABLED
    if (config_.flight.enabled) {
      raw->flight = std::make_unique<obs::FlightRecorder>(
          config_.flight.capacity, config_.clock);
      raw->flight->set_max_dumps(config_.flight.max_dumps);
      if (config_.flight_dump_sink) {
        auto dump_sink = config_.flight_dump_sink;
        raw->flight->set_dump_sink(
            [dump_sink, s](const obs::FlightEvent& trigger,
                           std::span<const obs::FlightEvent> window) {
              std::ostringstream rendered;
              obs::dump_flight_events_jsonl(window, rendered, trigger.seq);
              dump_sink(s, rendered.str());
            },
            config_.flight.dump_window);
      }
      // Fleet workers append decode-side events to the same ring.
      fleet_config.flight = raw->flight.get();
    }
#endif

    Sink shard_sink;
#if CSECG_OBS_ENABLED
    // Always interposed when obs is on: deliveries resolve the ingest
    // stamp and feed the e2e histogram even without a user sink.
    shard_sink = [this, raw](const FleetWindow& window) {
      FleetWindow translated = window;
      double t0 = 0.0;
      bool stamped = false;
      {
        std::lock_guard<std::mutex> lock(raw->map_mutex);
        translated.node_id = raw->global_ids[window.node_id];
        stamped =
            raw->stamps[window.node_id]->take(window.wire_sequence, t0);
      }
      if (stamped) {
        raw->e2e_hist->add(session_.clock().now() - t0);
      }
      if (sink_) {
        sink_(translated);
      }
    };
#else
    if (sink_) {
      shard_sink = [this, raw](const FleetWindow& window) {
        FleetWindow translated = window;
        {
          std::lock_guard<std::mutex> lock(raw->map_mutex);
          translated.node_id = raw->global_ids[window.node_id];
        }
        sink_(translated);
      };
    }
#endif

    FeedbackSink shard_feedback;
    if (feedback_) {
      shard_feedback = [this, raw](std::uint32_t local,
                                   std::span<const FeedbackMessage> messages) {
        std::uint32_t global = 0;
        {
          std::lock_guard<std::mutex> lock(raw->map_mutex);
          global = raw->global_ids[local];
        }
        if (raw->current_tier() == DegradeTier::kDropToKeyframe) {
          // Relaying NACKs for frames the ingest gate is dropping would
          // spin a retransmission storm that gets shed all over again.
          // Swallow them; the receiver's own retry budget abandons the
          // gaps and the stream re-enters on the next keyframe. ACKs
          // still flow so the transmitter can trim its window.
          static thread_local std::vector<FeedbackMessage> filtered;
          filtered.clear();
          std::size_t suppressed = 0;
          for (const FeedbackMessage& message : messages) {
            if (message.kind == FeedbackMessage::Kind::kNack) {
              ++suppressed;
            } else {
              filtered.push_back(message);
            }
          }
          if (suppressed > 0) {
            raw->nacks_suppressed.fetch_add(suppressed,
                                            std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
            raw->live_nacks_suppressed->add(suppressed);
            if (raw->flight != nullptr) {
              raw->flight->record(obs::FlightEventId::kNackSuppressed,
                                  global, suppressed);
            }
#endif
          }
          if (!filtered.empty()) {
            feedback_(global, filtered);
          }
          return;
        }
        feedback_(global, messages);
      };
    }

    shard->fleet = std::make_unique<FleetCoordinator>(
        fleet_config, std::move(shard_sink), std::move(shard_feedback));
#if CSECG_OBS_ENABLED
    // Live instruments live in the shard fleet's aggregate registry so
    // one Timeline watch per shard sees queue occupancy (fleet-owned)
    // and ingest state together. Created here, before any traffic, so
    // steady-state updates never allocate.
    obs::Registry& live = shard->fleet->session().registry();
    shard->e2e_hist = &live.histogram("e2e.latency.seconds");
    shard->live_offered = &live.counter("gateway.frames.offered");
    shard->live_admitted = &live.counter("gateway.frames.admitted");
    shard->live_shed_dropped = &live.counter("gateway.shed.dropped");
    shard->live_shed_queue_full = &live.counter("gateway.shed.queue_full");
    shard->live_nacks_suppressed =
        &live.counter("gateway.feedback.nacks_suppressed");
    shard->tier_gauge = &live.gauge("gateway.tier");
    shard->tier_gauge->set(0.0);
#endif
    shards_.push_back(std::move(shard));
  }
}

GatewayService::~GatewayService() = default;

std::uint32_t GatewayService::register_node(const core::StreamProfile& profile) {
  std::lock_guard<std::mutex> lock(nodes_mutex_);
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  const auto s = static_cast<std::uint32_t>(shard_index_of(id, shards_.size()));
  Shard& shard = *shards_[s];
  const std::uint32_t local = shard.fleet->add_node(profile);
  {
    std::lock_guard<std::mutex> map_lock(shard.map_mutex);
    shard.global_ids.push_back(id);
#if CSECG_OBS_ENABLED
    shard.stamps.push_back(std::make_unique<detail::FrameStampTable>());
    stamp_refs_.push_back(shard.stamps.back().get());
#endif
  }
  nodes_.push_back(NodeRef{s, local});
  return id;
}

std::size_t GatewayService::node_count() const {
  std::lock_guard<std::mutex> lock(nodes_mutex_);
  return nodes_.size();
}

std::size_t GatewayService::shard_of(std::uint32_t node_id) const {
  return shard_index_of(node_id, shards_.size());
}

OfferOutcome GatewayService::offer(std::uint32_t node_id,
                                   std::span<const std::uint8_t> frame) {
  Shard* shard_ptr = nullptr;
  std::uint32_t local = 0;
#if CSECG_OBS_ENABLED
  detail::FrameStampTable* stamps = nullptr;
#endif
  {
    std::lock_guard<std::mutex> lock(nodes_mutex_);
    if (finished_ || node_id >= nodes_.size()) {
      return OfferOutcome::kClosed;
    }
    const NodeRef ref = nodes_[node_id];
    shard_ptr = shards_[ref.shard].get();
    local = ref.local;
#if CSECG_OBS_ENABLED
    stamps = stamp_refs_[node_id];
#endif
  }
  Shard& shard = *shard_ptr;
  shard.offered.fetch_add(1, std::memory_order_relaxed);
  controller_step(shard);

#if CSECG_OBS_ENABLED
  shard.live_offered->add(1);
  // Every offer is stamped — before the tier gate, so a tier-2 ingest
  // drop that later surfaces as an ARQ-gap concealment still measures
  // the full shed-to-conceal latency on the same wire sequence.
  std::uint16_t wire_sequence = 0;
  if (frame.size() >= core::Packet::kHeaderBytes) {
    wire_sequence = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(frame[0]) << 8) | frame[1]);
    stamps->put(wire_sequence, session_.clock().now());
  }
#endif

  if (shard.current_tier() == DegradeTier::kDropToKeyframe) {
    // Admit only frames that re-establish decode state: kProfile
    // announcements and kAbsolute keyframes. Differentials depend on a
    // chain the shard has stopped advancing frame-accurately anyway, so
    // they are shed here — before a buffer is even taken.
    bool drop = true;
    if (frame.size() >= core::Packet::kHeaderBytes) {
      const std::uint8_t kind = frame[2] & core::Packet::kKindMask;
      drop = kind == static_cast<std::uint8_t>(core::PacketKind::kDifferential);
    }
    if (drop) {
      shard.shed_dropped.fetch_add(1, std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
      shard.live_shed_dropped->add(1);
      if (shard.flight != nullptr) {
        shard.flight->record(obs::FlightEventId::kFrameShed, node_id,
                             wire_sequence,
                             static_cast<std::uint64_t>(
                                 DegradeTier::kDropToKeyframe));
      }
#endif
      return OfferOutcome::kShedDropped;
    }
  }

  std::vector<std::uint8_t> buffer = pool_take();
  buffer.assign(frame.begin(), frame.end());
  if (!shard.fleet->try_submit(local, std::move(buffer))) {
    shard.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
    shard.live_shed_queue_full->add(1);
    if (shard.flight != nullptr) {
      shard.flight->record(
          obs::FlightEventId::kFrameShed, node_id, wire_sequence,
          static_cast<std::uint64_t>(shard.current_tier()));
    }
#endif
    // A refusal is proof the queue is overrun — skip the hysteresis and
    // move one tier immediately. The way back down is always damped.
    escalate(shard);
    return OfferOutcome::kShedQueueFull;
  }
  shard.admitted.fetch_add(1, std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
  shard.live_admitted->add(1);
  if (shard.flight != nullptr) {
    shard.flight->record(obs::FlightEventId::kFrameAccepted, node_id,
                         wire_sequence,
                         static_cast<std::uint64_t>(shard.current_tier()));
  }
#endif
  return OfferOutcome::kAdmitted;
}

void GatewayService::reserve_frame_buffers(std::size_t count,
                                           std::size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.reserve(pool_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> buffer;
    buffer.reserve(capacity_bytes);
    pool_.push_back(std::move(buffer));
  }
}

DegradeTier GatewayService::tier(std::size_t shard) const {
  return shards_[shard]->current_tier();
}

void GatewayService::force_tier(std::size_t shard_idx, DegradeTier tier) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.ctl_mutex);
  shard.pinned = true;
  const DegradeTier previous = shard.current_tier();
  if (tier != previous) {
    const bool up = static_cast<int>(tier) > static_cast<int>(previous);
    if (up) {
      ++shard.tier_escalations;
    } else {
      ++shard.tier_clears;
    }
    apply_tier(shard, tier);
#if CSECG_OBS_ENABLED
    if (shard.flight != nullptr) {
      shard.flight->record(up ? obs::FlightEventId::kTierEscalate
                              : obs::FlightEventId::kTierClear,
                           shard.index, static_cast<std::uint64_t>(previous),
                           static_cast<std::uint64_t>(tier));
    }
#endif
  }
}

void GatewayService::release_tier(std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.ctl_mutex);
  shard.pinned = false;
  shard.since_decision = 0;
  shard.raise_streak = 0;
  shard.clear_streak = 0;
}

std::size_t GatewayService::queued(std::size_t shard) const {
  return shards_[shard]->fleet->queued();
}

obs::Registry& GatewayService::shard_registry(std::size_t shard) {
  return shards_[shard]->fleet->session().registry();
}

obs::FlightRecorder* GatewayService::flight_recorder(std::size_t shard) {
#if CSECG_OBS_ENABLED
  return shards_[shard]->flight.get();
#else
  (void)shard;
  return nullptr;
#endif
}

void GatewayService::set_flight_dumps_enabled(bool enabled) {
#if CSECG_OBS_ENABLED
  for (auto& shard : shards_) {
    if (shard->flight != nullptr) {
      shard->flight->set_dump_enabled(enabled);
    }
  }
#else
  (void)enabled;
#endif
}

void GatewayService::apply_tier(Shard& shard, DegradeTier tier) {
  shard.tier.store(static_cast<int>(tier), std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
  shard.tier_gauge->set(static_cast<double>(static_cast<int>(tier)));
#endif
  // Tier 1 and above stop reconstructing; the entropy decode keeps the
  // differential chain exact so clearing resumes full decodes in place.
  shard.fleet->set_decode_mode(tier == DegradeTier::kFullDecode
                                   ? FleetCoordinator::DecodeMode::kFull
                                   : FleetCoordinator::DecodeMode::kConcealOnly);
}

void GatewayService::escalate(Shard& shard) {
  if (!config_.admission.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(shard.ctl_mutex);
  if (shard.pinned) {
    return;
  }
  shard.since_decision = 0;
  shard.raise_streak = 0;
  shard.clear_streak = 0;
  const DegradeTier current = shard.current_tier();
  if (current == DegradeTier::kDropToKeyframe) {
    return;
  }
  ++shard.tier_escalations;
  const auto next = static_cast<DegradeTier>(static_cast<int>(current) + 1);
  apply_tier(shard, next);
#if CSECG_OBS_ENABLED
  if (shard.flight != nullptr) {
    shard.flight->record(obs::FlightEventId::kTierEscalate, shard.index,
                         static_cast<std::uint64_t>(current),
                         static_cast<std::uint64_t>(next));
  }
#endif
}

void GatewayService::controller_step(Shard& shard) {
  if (!config_.admission.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(shard.ctl_mutex);
  if (shard.pinned) {
    return;
  }
  if (++shard.since_decision < config_.admission.decision_interval) {
    return;
  }
  shard.since_decision = 0;
  const std::size_t depth = config_.shard.queue_depth;
  const double occupancy =
      depth == 0 ? 0.0
                 : static_cast<double>(shard.fleet->queued()) /
                       static_cast<double>(depth);
  const DegradeTier current = shard.current_tier();
  if (occupancy >= config_.admission.escalate_occupancy) {
    shard.clear_streak = 0;
    if (++shard.raise_streak >= config_.admission.hysteresis_decisions &&
        current != DegradeTier::kDropToKeyframe) {
      shard.raise_streak = 0;
      ++shard.tier_escalations;
      const auto next =
          static_cast<DegradeTier>(static_cast<int>(current) + 1);
      apply_tier(shard, next);
#if CSECG_OBS_ENABLED
      if (shard.flight != nullptr) {
        shard.flight->record(obs::FlightEventId::kTierEscalate, shard.index,
                             static_cast<std::uint64_t>(current),
                             static_cast<std::uint64_t>(next));
      }
#endif
    }
  } else if (occupancy <= config_.admission.clear_occupancy) {
    shard.raise_streak = 0;
    if (++shard.clear_streak >= config_.admission.hysteresis_decisions &&
        current != DegradeTier::kFullDecode) {
      shard.clear_streak = 0;
      ++shard.tier_clears;
      const auto next =
          static_cast<DegradeTier>(static_cast<int>(current) - 1);
      apply_tier(shard, next);
#if CSECG_OBS_ENABLED
      if (shard.flight != nullptr) {
        shard.flight->record(obs::FlightEventId::kTierClear, shard.index,
                             static_cast<std::uint64_t>(current),
                             static_cast<std::uint64_t>(next));
      }
#endif
    }
  } else {
    shard.raise_streak = 0;
    shard.clear_streak = 0;
  }
}

std::vector<std::uint8_t> GatewayService::pool_take() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.empty()) {
    return {};
  }
  std::vector<std::uint8_t> buffer = std::move(pool_.back());
  pool_.pop_back();
  return buffer;
}

void GatewayService::pool_put(std::vector<std::uint8_t>&& buffer) {
  buffer.clear();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(buffer));
}

GatewayReport GatewayService::finish() {
  {
    std::lock_guard<std::mutex> lock(nodes_mutex_);
    if (finished_) {
      return {};
    }
    finished_ = true;
  }
  GatewayReport report;
  report.shards.reserve(shards_.size());
  auto& registry = session_.registry();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    GatewayShardReport sr;
    sr.shard = shard.index;
    sr.final_tier = shard.current_tier();
    {
      std::lock_guard<std::mutex> lock(shard.ctl_mutex);
      sr.tier_escalations = shard.tier_escalations;
      sr.tier_clears = shard.tier_clears;
    }
    // Drain and join the shard's workers FIRST: nacks_suppressed is
    // incremented from worker threads (the shard feedback filter), so
    // sampling it before fleet->finish() races the workers still
    // processing queued frames — the source of the old ~1/800 flake in
    // GatewayTest.DropToKeyframeSuppressesNacksButNotAcks. The offer-side
    // counters are bumped synchronously by offer(), which callers must
    // have stopped driving before finish(), so sampling them after the
    // join is equally sound.
    sr.fleet = shard.fleet->finish();
    sr.offered = shard.offered.load(std::memory_order_relaxed);
    sr.admitted = shard.admitted.load(std::memory_order_relaxed);
    sr.shed_dropped = shard.shed_dropped.load(std::memory_order_relaxed);
    sr.shed_queue_full = shard.shed_queue_full.load(std::memory_order_relaxed);
    sr.nacks_suppressed = shard.nacks_suppressed.load(std::memory_order_relaxed);
#if CSECG_OBS_ENABLED
    if (shard.e2e_hist->count() > 0) {
      sr.e2e_windows = shard.e2e_hist->count();
      sr.e2e_p50_s = shard.e2e_hist->quantile(0.50);
      sr.e2e_p99_s = shard.e2e_hist->quantile(0.99);
    }
#endif
    // Every shard session uses the same instrument names, so this fold
    // (shard aggregates are themselves per-node merges) yields the
    // gateway-wide distributions — counters sum, gauge high-waters max.
    registry.merge(shard.fleet->session().registry());

    report.offered += sr.offered;
    report.admitted += sr.admitted;
    report.shed_dropped += sr.shed_dropped;
    report.shed_queue_full += sr.shed_queue_full;
    report.nacks_suppressed += sr.nacks_suppressed;
    report.tier_escalations += sr.tier_escalations;
    report.tier_clears += sr.tier_clears;
    report.windows_reconstructed += sr.fleet.windows_reconstructed;
    report.windows_concealed += sr.fleet.windows_concealed;
    report.windows_shed_concealed += sr.fleet.windows_shed_concealed;
    report.frames_rejected += sr.fleet.frames_rejected;
    report.frames_discarded += sr.fleet.frames_discarded;
    report.deadline_misses += sr.fleet.deadline_misses;
    report.queue_high_water =
        std::max(report.queue_high_water, sr.fleet.queue_high_water);
    report.wall_seconds = std::max(report.wall_seconds, sr.fleet.wall_seconds);
    report.shards.push_back(std::move(sr));
  }
  const obs::Histogram* decode_hist =
      registry.find_histogram("fleet.decode.seconds");
  if (decode_hist != nullptr && decode_hist->count() > 0) {
    report.latency_p50_s = decode_hist->quantile(0.50);
    report.latency_p95_s = decode_hist->quantile(0.95);
    report.latency_p99_s = decode_hist->quantile(0.99);
  }
  const obs::Histogram* e2e_hist =
      registry.find_histogram("e2e.latency.seconds");
  if (e2e_hist != nullptr && e2e_hist->count() > 0) {
    report.e2e_windows = e2e_hist->count();
    report.e2e_p50_s = e2e_hist->quantile(0.50);
    report.e2e_p99_s = e2e_hist->quantile(0.99);
  }
#if CSECG_OBS_ENABLED
  // The gateway.* ingest counters were mirrored live into the shard
  // registries (offer() bumps them inline) and arrived through the
  // merge above — re-adding the report totals here would double-count.
#else
  // OFF build: no live mirrors, so the exporter-visible counters are
  // created from the report totals after the merge on purpose (the
  // JSONL exporter must carry post-merge instruments — see obs_test
  // MergeThenExport).
  registry.counter("gateway.frames.offered").add(report.offered);
  registry.counter("gateway.frames.admitted").add(report.admitted);
  if (report.shed_dropped > 0) {
    registry.counter("gateway.shed.dropped").add(report.shed_dropped);
  }
  if (report.shed_queue_full > 0) {
    registry.counter("gateway.shed.queue_full").add(report.shed_queue_full);
  }
  if (report.nacks_suppressed > 0) {
    registry.counter("gateway.feedback.nacks_suppressed")
        .add(report.nacks_suppressed);
  }
#endif
  if (report.tier_escalations > 0) {
    registry.counter("gateway.tier.escalations").add(report.tier_escalations);
  }
  if (report.tier_clears > 0) {
    registry.counter("gateway.tier.clears").add(report.tier_clears);
  }
  registry.gauge("gateway.shards").set(static_cast<double>(shards_.size()));
  registry.gauge("gateway.queue.high_water")
      .set(static_cast<double>(report.queue_high_water));
  return report;
}

std::vector<obs::SloRow> GatewayService::slo_rows(const GatewayReport& report,
                                                  std::size_t queue_depth) {
  std::vector<obs::SloRow> rows;
  rows.reserve(report.shards.size() + 1);
  for (const GatewayShardReport& sr : report.shards) {
    obs::SloRow row;
    row.label = "shard " + std::to_string(sr.shard);
    row.offered = sr.offered;
    row.decoded = sr.fleet.windows_reconstructed;
    row.concealed = sr.fleet.windows_concealed;
    row.shed_concealed = sr.fleet.windows_shed_concealed;
    row.shed_dropped = sr.shed_dropped + sr.shed_queue_full;
    row.queue_high_water = sr.fleet.queue_high_water;
    row.queue_depth = queue_depth;
    row.deadline_misses = sr.fleet.deadline_misses;
    row.p50_ms = sr.fleet.latency_p50_s * 1e3;
    row.p99_ms = sr.fleet.latency_p99_s * 1e3;
    row.e2e_p50_ms = sr.e2e_p50_s * 1e3;
    row.e2e_p99_ms = sr.e2e_p99_s * 1e3;
    rows.push_back(std::move(row));
  }
  obs::SloRow global;
  global.label = "global";
  global.offered = report.offered;
  global.decoded = report.windows_reconstructed;
  global.concealed = report.windows_concealed;
  global.shed_concealed = report.windows_shed_concealed;
  global.shed_dropped = report.shed_dropped + report.shed_queue_full;
  global.queue_high_water = report.queue_high_water;
  global.queue_depth = queue_depth;
  global.deadline_misses = report.deadline_misses;
  global.p50_ms = report.latency_p50_s * 1e3;
  global.p99_ms = report.latency_p99_s * 1e3;
  global.e2e_p50_ms = report.e2e_p50_s * 1e3;
  global.e2e_p99_ms = report.e2e_p99_s * 1e3;
  rows.push_back(std::move(global));
  return rows;
}

}  // namespace csecg::wbsn
