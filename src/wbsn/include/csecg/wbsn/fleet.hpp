#ifndef CSECG_WBSN_FLEET_HPP
#define CSECG_WBSN_FLEET_HPP

/// \file fleet.hpp
/// Fleet-scale decode: one gateway process terminating many sensor nodes.
///
/// One Coordinator (coordinator.hpp) is one stream's receiver — the
/// paper's one-phone-one-mote deployment. A monitoring service
/// aggregates thousands of those streams, and FISTA at CR = 50 is far
/// heavier than the framing around it, so the gateway runs one
/// Coordinator per node and multiplexes them onto a small fixed pool of
/// decode workers:
///
///   submit(node, frame) --+--> [node 0: FIFO, Coordinator] --+
///                         +--> [node 1: ...]                +--> worker pool
///                         +--> [node k: ...]                +
///
/// The fleet itself only schedules: the receive path (CRC, lead-group
/// assembly, ARQ, decode, concealment) is the node's Coordinator. The
/// fleet adds the per-node obs sessions, latency and deadline accounting
/// and the sink.
///
/// Scheduling invariants (see DESIGN.md "Fleet decode"):
///  * A node is held by at most one worker at a time (a "scheduled"
///    flag), so per-node frames are processed — and the sink invoked —
///    strictly in submission order; no per-node lock is ever taken
///    during a decode.
///  * The work queue is bounded across all nodes; submit() blocks when
///    the fleet is queue_depth frames behind (backpressure to the
///    ingest side, never unbounded memory).
///  * Each worker owns one solvers::SolverWorkspace and each node's
///    Coordinator keeps its decode scratch, so steady-state decoding is
///    allocation-free in the reconstruction hot path.
///  * Each node owns an obs::Session; workers attach it while processing
///    that node's frames. finish() merges every per-node registry into
///    the aggregate session, so fleet-wide latency quantiles and
///    per-node breakdowns come from one metrics tree.
///  * A lead-group stream (StreamProfile v2, leads > 1) schedules whole
///    group windows: the L same-sequence frames reassemble ahead of the
///    ARQ, decode as one joint group-sparse solve, and conceal or shed
///    whole — the node's leads never skew against each other.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/obs/flight_recorder.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/wbsn/arq.hpp"
#include "csecg/wbsn/coordinator.hpp"

namespace csecg::wbsn {

namespace detail {

/// Grow-on-demand FIFO ring. push_back/pop_front allocate nothing once
/// the capacity covers the deepest backlog ever seen — unlike
/// std::deque, whose chunk map churns an allocation every few dozen
/// operations even at a steady depth. Not thread-safe on its own; the
/// fleet mutex guards every use.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      grow();
    }
    slots_[(head_ + size_) % slots_.size()] = std::move(value);
    ++size_;
  }

  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    head_ = 0;
    slots_ = std::move(bigger);
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

struct FleetConfig {
  /// Decode worker threads. The pool is fixed at construction; decode
  /// throughput scales near-linearly until workers approach core count.
  std::size_t workers = 4;
  /// Total frames queued across all nodes before submit() blocks.
  std::size_t queue_depth = 64;
  /// Per-window decode budget (the paper's 2 s window period).
  double deadline_seconds = 2.0;
  /// Single-lead windows decoded per solver invocation on one node. A
  /// worker drains up to this many consecutive frames from a node per
  /// dispatch; their decodable windows pend as rows of one panel, which
  /// runs through Decoder::reconstruct_batch_into once decode_batch
  /// windows are pending or at the next non-window event — every kernel
  /// and operator traversal sweeps the whole batch, with results
  /// bitwise-equal to sequential decodes (warm starts off; with warm
  /// starts the panel shares the pre-batch prior, see decoder.hpp) and
  /// per-node sink order preserved. 1 = one frame per dispatch, each
  /// window solved alone. A lead group is always one joint solve of its
  /// own, whatever this says.
  std::size_t decode_batch = 1;
  /// Kernel backend every node decoder runs through. Null = the library
  /// default. Must outlive the fleet; the linalg singletons always do.
  const linalg::Backend* backend = nullptr;
  /// Prior-aware decode policy applied to every node decoder (warm
  /// starts, weighted l1, support-aware tolerance). Receiver policy, so
  /// it composes with any stream profile; concealments and keyframes
  /// invalidate each node's warm state automatically.
  core::PriorPolicy prior;
  /// Per-node receiver-side ARQ configuration.
  ArqConfig arq;
  /// Record per-window obs spans while decoding. A span costs a handful
  /// of small allocations on the worker thread; a soak that asserts an
  /// allocation-free steady state turns this off (stats, counters and
  /// latency histograms all stay on).
  bool trace_spans = true;
  /// Optional frame-buffer recycler. When set, workers hand back every
  /// frame buffer they have finished with — capacity intact — instead of
  /// freeing it, so an ingest side that refills buffers from a pool runs
  /// allocation-free in steady state. Called from worker threads; must
  /// be thread-safe.
  std::function<void(std::vector<std::uint8_t>&&)> frame_recycler;
  /// Optional flight recorder (owned by the caller, e.g. the gateway
  /// shard; must outlive the fleet). Workers append crc_mismatch,
  /// deadline_miss, frame_rejected and profile_applied events — record()
  /// is lock-free and allocation-free, so the decode hot path keeps its
  /// contract. Null = no flight events.
  obs::FlightRecorder* flight = nullptr;
};

/// One node's receive ledger (its Coordinator's CoordinatorStats) plus
/// what only the fleet sees. For clean in-order traffic without
/// duplicates the frame ledger closes:
///   frames_submitted == leads*(reconstructed + shed_concealed)
///                       + profiles_applied + rejected + corrupt
///                       + discarded
struct FleetNodeStats : CoordinatorStats {
  std::uint32_t node_id = 0;
  std::size_t frames_submitted = 0;
  std::size_t deadline_misses = 0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
};

struct FleetReport {
  std::vector<FleetNodeStats> nodes;
  std::size_t frames_submitted = 0;
  std::size_t frames_corrupt = 0;
  std::size_t frames_rejected = 0;
  std::size_t frames_discarded = 0;  ///< partial-group frames dropped
  std::size_t windows_reconstructed = 0;
  std::size_t windows_concealed = 0;
  std::size_t windows_shed_concealed = 0;  ///< subset of windows_concealed
  std::size_t profiles_applied = 0;
  std::size_t deadline_misses = 0;
  std::size_t queue_high_water = 0;  ///< max frames queued at once
  double iterations_total = 0.0;
  double decode_seconds_total = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double wall_seconds = 0.0;

  double mean_iterations() const {
    return windows_reconstructed == 0
               ? 0.0
               : iterations_total /
                     static_cast<double>(windows_reconstructed);
  }
};

class FleetCoordinator {
 public:
  /// Worker-side decode policy, switchable at runtime (an admission
  /// controller flips it under load — see GatewayService). kConcealOnly
  /// keeps the entropy decode running, so the differential chain stays
  /// intact and dropping back to kFull resumes exact decodes, but skips
  /// reconstruction and delivers concealed windows instead: per-frame
  /// cost falls from a FISTA solve to microseconds.
  enum class DecodeMode : int { kFull = 0, kConcealOnly = 1 };

  /// Called from worker threads — concurrently across nodes, strictly
  /// in submission order within one node. Must be thread-safe.
  using Sink = std::function<void(const FleetWindow&)>;
  /// ACK/NACK feedback for one node, to be relayed to its transmitter.
  using FeedbackSink =
      std::function<void(std::uint32_t node_id,
                         std::span<const FeedbackMessage> messages)>;

  explicit FleetCoordinator(const FleetConfig& config, Sink sink = {},
                            FeedbackSink feedback = {});
  /// Joins the pool; finish() first if the report is wanted.
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Registers a sensor node; the returned id keys submit(). Nodes may
  /// be added while the fleet is running.
  std::uint32_t add_node(const core::DecoderConfig& config,
                         coding::HuffmanCodebook codebook);

  /// Registers a v1 sensor node whose decode state bootstraps entirely
  /// from \p profile (typically parsed from the node's own kProfile
  /// announcement frame — the gateway needs no out-of-band config). Each
  /// node carries its own profile, so a fleet mixes CRs freely, and later
  /// kProfile frames from the node re-profile it mid-stream.
  std::uint32_t add_node(const core::StreamProfile& profile);

  std::size_t node_count() const;

  /// Enqueues one raw link frame from \p node_id. Blocks while the fleet
  /// is queue_depth frames behind; returns false once finish() has been
  /// called. Frames from one node decode in submission order.
  bool submit(std::uint32_t node_id, std::vector<std::uint8_t> frame);

  /// Non-blocking submit: refuses (returns false; the frame goes to the
  /// frame_recycler when one is set, else is freed) when the queue is at
  /// queue_depth or the fleet is closed, instead of stalling the ingest
  /// thread. The admission-control building block — a refusal is the
  /// backpressure signal a gateway sheds on.
  bool try_submit(std::uint32_t node_id, std::vector<std::uint8_t> frame);

  /// Frames currently queued across all nodes (the occupancy an
  /// admission controller compares against queue_depth).
  std::size_t queued() const;

  /// Runtime decode-policy switch; takes effect from the next frame a
  /// worker picks up. Thread-safe.
  void set_decode_mode(DecodeMode mode) {
    decode_mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
  }
  DecodeMode decode_mode() const {
    return static_cast<DecodeMode>(
        decode_mode_.load(std::memory_order_relaxed));
  }

  /// Drains the queues, flushes every node's ARQ (abandoned tail gaps
  /// are concealed through the sink), joins the workers and merges the
  /// per-node metric registries into session(). Call once.
  FleetReport finish();

  /// Aggregate observability session. Per-node registries are folded in
  /// by finish(); live during the run it only carries queue occupancy.
  obs::Session& session() { return aggregate_; }

 private:
  struct NodeState;

  /// The body both add_node overloads share: applies the fleet's
  /// backend, prior policy and span switch, assigns the id and wires the
  /// node's Coordinator.
  std::uint32_t register_node(std::unique_ptr<NodeState> node);
  void worker_loop();
  /// Appends \p frame to the node's inbox and wakes a worker. Caller
  /// holds mutex_ and has checked queue space.
  void enqueue_locked(NodeState& node, std::vector<std::uint8_t> frame);
  /// Feeds one dispatch's frames to the node's Coordinator, then
  /// flushes it: anything still pending reaches the sink before another
  /// worker picks the node up.
  void process_frames(NodeState& node,
                      std::vector<std::vector<std::uint8_t>>& frames,
                      solvers::SolverWorkspace& workspace);
  /// The node's delivery hook: latency and deadline accounting for a
  /// decoded unit, then the sink.
  void deliver(NodeState& node, const FleetWindow& window);

  FleetConfig config_;
  Sink sink_;
  FeedbackSink feedback_;
  obs::Session aggregate_;
  obs::Gauge* queue_gauge_;  ///< fleet.queue.occupancy (max = high water)

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< a node became runnable / closed
  std::condition_variable space_cv_;  ///< queue space freed / closed
  std::vector<std::unique_ptr<NodeState>> nodes_;
  detail::Ring<NodeState*> runnable_;  ///< nodes with frames, unscheduled
  std::size_t queued_total_ = 0;
  std::size_t queue_high_water_ = 0;
  std::atomic<int> decode_mode_{static_cast<int>(DecodeMode::kFull)};
  bool closed_ = false;
  bool finished_ = false;

  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_FLEET_HPP
