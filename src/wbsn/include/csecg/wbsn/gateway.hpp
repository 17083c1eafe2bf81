#ifndef CSECG_WBSN_GATEWAY_HPP
#define CSECG_WBSN_GATEWAY_HPP

/// \file gateway.hpp
/// Gateway-as-a-service: S independent FleetCoordinator shards behind a
/// single ingest front door, with admission control and graceful load
/// shedding.
///
/// One FleetCoordinator multiplexes N decode states onto one worker pool
/// behind one bounded queue — and one queue means one convoy: a burst
/// from any subset of nodes backpressures every node, and submit()
/// stalls the ingest thread. The gateway splits the population into S
/// shards (hash of the node id, so assignment is stable and needs no
/// coordination), each with its own queue, worker slice and obs
/// registry, and puts an admission controller in front of each:
///
///   offer(node, frame) -> shard_of(node) -> [tier gate] -> try_submit
///
/// Overload is a first-class state, not a deadlock or an OOM. Each shard
/// walks a degrade ladder under pressure:
///
///   kFullDecode     every admitted frame is FISTA-reconstructed
///   kConcealOnly    frames are entropy-decoded (the differential chain
///                   keeps advancing) but reconstruction is skipped and
///                   concealments are delivered — per-frame cost drops
///                   from a solve to microseconds, so the queue drains
///   kDropToKeyframe non-keyframe frames are dropped at ingest and NACK
///                   feedback is suppressed; the stream re-enters via
///                   the next keyframe (PR-1's ARQ gap-abandonment turns
///                   the dropped run into concealments)
///
/// Escalation is immediate on a full-queue refusal and
/// occupancy-triggered otherwise; de-escalation requires the occupancy
/// to stay below the clear threshold for a configurable number of
/// consecutive decisions (hysteresis, same shape as AdaptiveCrPolicy) so
/// the tier does not flap on a sawtooth queue. Every shed is counted per
/// tier, and finish() folds the per-shard registries into one session
/// plus a per-shard + global SLO table (obs::render_slo_table).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "csecg/obs/export.hpp"
#include "csecg/wbsn/fleet.hpp"

namespace csecg::wbsn {

namespace detail {
class FrameStampTable;
}  // namespace detail

/// Admission-controller degrade ladder, most permissive first.
enum class DegradeTier : std::uint8_t {
  kFullDecode = 0,
  kConcealOnly = 1,
  kDropToKeyframe = 2,
};

const char* degrade_tier_name(DegradeTier tier);

struct AdmissionConfig {
  /// Master switch; off pins every shard at kFullDecode (offers that hit
  /// a full queue are still refused — try_submit never blocks).
  bool enabled = true;
  /// Queue occupancy (fraction of queue_depth) at or above which a
  /// decision votes to escalate one tier.
  double escalate_occupancy = 0.75;
  /// Occupancy at or below which a decision votes to clear one tier.
  double clear_occupancy = 0.25;
  /// Offered frames per shard between controller decisions.
  std::size_t decision_interval = 32;
  /// Consecutive agreeing decisions required to move one tier. A
  /// full-queue refusal escalates immediately regardless (the queue is
  /// provably overrun); hysteresis always gates the way back down.
  std::size_t hysteresis_decisions = 2;
};

struct GatewayConfig {
  /// Independent coordinator shards. Nodes hash to a shard for life.
  std::size_t shards = 2;
  /// Per-shard fleet configuration (worker slice, queue depth, ARQ,
  /// decode batch, backend). workers and queue_depth are per shard.
  FleetConfig shard;
  AdmissionConfig admission;
  /// Per-shard flight recorder (obs::FlightRecorder). Only wired up in
  /// CSECG_OBS=ON builds; under OFF no recorder is created and
  /// flight_recorder() returns null.
  struct FlightConfig {
    bool enabled = true;
    std::size_t capacity = 1024;   ///< ring slots (rounded to 2^n)
    std::size_t dump_window = 32;  ///< events per anomaly dump
    std::size_t max_dumps = 16;    ///< per-shard dump budget
  } flight;
  /// Receives each anomaly dump, already rendered as flight-event JSONL.
  /// Called synchronously from whichever thread hit the anomaly — must
  /// be thread-safe. Unset = events record but anomalies never dump.
  std::function<void(std::size_t shard, const std::string& jsonl)>
      flight_dump_sink;
  /// Clock for end-to-end latency stamps and flight-event times. Null =
  /// the process steady clock; tests pass a ManualClock.
  const obs::Clock* clock = nullptr;
};

/// Where one offered frame ended up. Exactly one outcome per offer, so
/// offered == admitted + dropped + queue_full + closed always holds.
enum class OfferOutcome : std::uint8_t {
  kAdmitted = 0,     ///< queued on the shard (tier 0/1)
  kShedDropped,      ///< tier-2 gate dropped a non-keyframe at ingest
  kShedQueueFull,    ///< try_submit refused: queue at depth
  kClosed,           ///< finish() already called
};

struct GatewayShardReport {
  std::size_t shard = 0;
  DegradeTier final_tier = DegradeTier::kFullDecode;
  std::size_t offered = 0;          ///< frames seen by offer()
  std::size_t admitted = 0;
  std::size_t shed_dropped = 0;     ///< tier-2 ingest drops
  std::size_t shed_queue_full = 0;  ///< full-queue refusals
  std::size_t nacks_suppressed = 0;
  std::size_t tier_escalations = 0;
  std::size_t tier_clears = 0;
  /// End-to-end (offer() to sink delivery) latency over deliveries whose
  /// ingest stamp was matched. Zero in CSECG_OBS=OFF builds.
  std::size_t e2e_windows = 0;
  double e2e_p50_s = 0.0;
  double e2e_p99_s = 0.0;
  FleetReport fleet;
};

struct GatewayReport {
  std::vector<GatewayShardReport> shards;
  // Global fold.
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed_dropped = 0;
  std::size_t shed_queue_full = 0;
  std::size_t nacks_suppressed = 0;
  std::size_t tier_escalations = 0;
  std::size_t tier_clears = 0;
  std::size_t windows_reconstructed = 0;
  std::size_t windows_concealed = 0;
  std::size_t windows_shed_concealed = 0;
  std::size_t frames_rejected = 0;
  std::size_t frames_discarded = 0;  ///< partial lead-group frames dropped
  std::size_t deadline_misses = 0;
  std::size_t queue_high_water = 0;  ///< max over shards
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  std::size_t e2e_windows = 0;  ///< stamped offer-to-delivery samples
  double e2e_p50_s = 0.0;
  double e2e_p99_s = 0.0;
  double wall_seconds = 0.0;

  /// The ingest ledger balances: every offered frame is accounted as
  /// admitted or shed by exactly one counter.
  bool accounts_exactly() const {
    return offered == admitted + shed_dropped + shed_queue_full;
  }
};

class GatewayService {
 public:
  /// Deliveries and feedback carry the *gateway* node id (the one
  /// register_node returned), not the shard-local id.
  using Sink = FleetCoordinator::Sink;
  using FeedbackSink = FleetCoordinator::FeedbackSink;

  explicit GatewayService(const GatewayConfig& config, Sink sink = {},
                          FeedbackSink feedback = {});
  ~GatewayService();

  GatewayService(const GatewayService&) = delete;
  GatewayService& operator=(const GatewayService&) = delete;

  /// Registers a node (thread-safe, allowed while streaming); the
  /// returned id keys offer(). Shard assignment is a stable hash of the
  /// id.
  std::uint32_t register_node(const core::StreamProfile& profile);

  std::size_t node_count() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(std::uint32_t node_id) const;

  /// Ingests one raw link frame. Never blocks: the frame is copied into
  /// a pooled buffer and try_submit'ed to the node's shard, or shed per
  /// the shard's current tier. Thread-safe.
  OfferOutcome offer(std::uint32_t node_id,
                     std::span<const std::uint8_t> frame);

  /// Pre-fills the ingest buffer pool with \p count buffers of
  /// \p capacity_bytes reserved capacity. Sized past the maximum
  /// in-flight frame count (shards * queue_depth + workers * batch),
  /// the pool never empties — offer() then never allocates, even on the
  /// first frames.
  void reserve_frame_buffers(std::size_t count, std::size_t capacity_bytes);

  DegradeTier tier(std::size_t shard) const;
  /// Pins a shard's tier (tests, CI shed-path forcing). The controller
  /// stops moving it until release_tier().
  void force_tier(std::size_t shard, DegradeTier tier);
  void release_tier(std::size_t shard);
  std::size_t queued(std::size_t shard) const;

  /// Drains every shard, joins their pools, folds shard registries into
  /// session() and writes the gateway.* counters. Call once.
  GatewayReport finish();

  /// Gateway-wide observability session: per-shard aggregates are folded
  /// in by finish().
  obs::Session& session() { return session_; }

  /// A shard's live registry (the shard fleet's aggregate session).
  /// Carries queue occupancy, the gateway.* ingest mirrors, the tier
  /// gauge and the e2e latency histogram while the service runs — the
  /// surface an obs::Timeline watches.
  obs::Registry& shard_registry(std::size_t shard);
  /// The shard's flight recorder; null when flight.enabled is false or
  /// the build has CSECG_OBS=OFF.
  obs::FlightRecorder* flight_recorder(std::size_t shard);
  /// Arms/disarms anomaly dumps on every shard recorder (events still
  /// record). A soak disarms them across its measured steady phase:
  /// rendering a dump allocates. No-op under CSECG_OBS=OFF.
  void set_flight_dumps_enabled(bool enabled);

  /// Per-shard rows plus the global fold, ready for
  /// obs::render_slo_table.
  static std::vector<obs::SloRow> slo_rows(const GatewayReport& report,
                                           std::size_t queue_depth);

 private:
  struct Shard;

  Shard& shard_for(std::uint32_t node_id, std::uint32_t& local_id);
  void escalate(Shard& shard);
  void apply_tier(Shard& shard, DegradeTier tier);
  void controller_step(Shard& shard);
  std::vector<std::uint8_t> pool_take();
  void pool_put(std::vector<std::uint8_t>&& buffer);

  GatewayConfig config_;
  Sink sink_;
  FeedbackSink feedback_;
  obs::Session session_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// gateway id -> (shard, shard-local id).
  struct NodeRef {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;
  };
  mutable std::mutex nodes_mutex_;
  std::vector<NodeRef> nodes_;
#if CSECG_OBS_ENABLED
  /// Parallel to nodes_: each node's ingest stamp table (owned by its
  /// shard), resolved at registration so offer() stamps without touching
  /// the shard-local maps. Guarded by nodes_mutex_.
  std::vector<detail::FrameStampTable*> stamp_refs_;
#endif
  bool finished_ = false;

  std::mutex pool_mutex_;
  std::vector<std::vector<std::uint8_t>> pool_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_GATEWAY_HPP
