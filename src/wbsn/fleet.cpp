#include "csecg/wbsn/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "csecg/util/error.hpp"

namespace csecg::wbsn {

namespace {

/// Shared instrument names: every node session uses the same names, so
/// Registry::merge at finish() folds them into the fleet-wide aggregate.
constexpr const char* kDecodeSeconds = "fleet.decode.seconds";
constexpr const char* kDeadlineMisses = "fleet.deadline.misses";

}  // namespace

/// Everything one sensor stream owns on the gateway. A NodeState is only
/// ever touched by the worker that currently holds it (the scheduled
/// flag), except for inbox/frames_submitted which submit() updates under
/// the fleet mutex.
struct FleetCoordinator::NodeState {
  /// \p receiver_args construct the node's Coordinator in place: a
  /// (DecoderConfig, HuffmanCodebook) pair or a StreamProfile.
  template <typename... ReceiverArgs>
  explicit NodeState(const ArqConfig& arq_config,
                     ReceiverArgs&&... receiver_args)
      : coordinator(std::forward<ReceiverArgs>(receiver_args)..., arq_config),
        latency_hist(&session.registry().histogram(kDecodeSeconds)) {}

  std::uint32_t id = 0;
  Coordinator coordinator;
  obs::Session session;
  obs::Histogram* latency_hist;
  detail::Ring<std::vector<std::uint8_t>> inbox;
  bool scheduled = false;
  std::size_t frames_submitted = 0;
  std::size_t deadline_misses = 0;
};

FleetCoordinator::FleetCoordinator(const FleetConfig& config, Sink sink,
                                   FeedbackSink feedback)
    : config_(config),
      sink_(std::move(sink)),
      feedback_(std::move(feedback)),
      queue_gauge_(&aggregate_.registry().gauge("fleet.queue.occupancy")),
      start_(std::chrono::steady_clock::now()) {
  CSECG_CHECK(config_.workers > 0, "fleet needs at least one worker");
  CSECG_CHECK(config_.queue_depth > 0, "fleet needs a positive queue depth");
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

FleetCoordinator::~FleetCoordinator() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

std::uint32_t FleetCoordinator::add_node(const core::DecoderConfig& config,
                                         coding::HuffmanCodebook codebook) {
  return register_node(
      std::make_unique<NodeState>(config_.arq, config, std::move(codebook)));
}

std::uint32_t FleetCoordinator::add_node(const core::StreamProfile& profile) {
  return register_node(std::make_unique<NodeState>(config_.arq, profile));
}

std::uint32_t FleetCoordinator::register_node(
    std::unique_ptr<NodeState> node) {
  core::Decoder& decoder = node->coordinator.decoder();
  if (config_.backend != nullptr) {
    decoder.set_backend(*config_.backend);
  }
  decoder.set_prior_policy(config_.prior);
  if (!config_.trace_spans) {
    node->session.tracer().set_enabled(false);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CSECG_CHECK(!closed_, "fleet already finished");
  node->id = static_cast<std::uint32_t>(nodes_.size());
  NodeState* raw = node.get();
  Coordinator::Wiring wiring;
  wiring.node_id = node->id;
  wiring.decode_batch = config_.decode_batch;
  wiring.deliver = [this, raw](const FleetWindow& window) {
    deliver(*raw, window);
  };
  if (feedback_) {
    wiring.feedback = [this, raw](std::span<const FeedbackMessage> messages) {
      feedback_(raw->id, messages);
    };
  }
  wiring.recycler = config_.frame_recycler;
  wiring.flight = config_.flight;
  node->coordinator.wire(std::move(wiring));
  nodes_.push_back(std::move(node));
  return nodes_.back()->id;
}

std::size_t FleetCoordinator::node_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
}

bool FleetCoordinator::submit(std::uint32_t node_id,
                              std::vector<std::uint8_t> frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  CSECG_CHECK(node_id < nodes_.size(), "unknown fleet node id");
  space_cv_.wait(lock,
                 [&] { return queued_total_ < config_.queue_depth || closed_; });
  if (closed_) {
    return false;
  }
  enqueue_locked(*nodes_[node_id], std::move(frame));
  return true;
}

bool FleetCoordinator::try_submit(std::uint32_t node_id,
                                  std::vector<std::uint8_t> frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  CSECG_CHECK(node_id < nodes_.size(), "unknown fleet node id");
  if (closed_ || queued_total_ >= config_.queue_depth) {
    // Full queue: refuse now, let the caller shed. The buffer goes back
    // through the recycler so a pooled ingest side conserves its pool
    // even across refusals.
    lock.unlock();
    if (config_.frame_recycler) {
      config_.frame_recycler(std::move(frame));
    }
    return false;
  }
  enqueue_locked(*nodes_[node_id], std::move(frame));
  return true;
}

std::size_t FleetCoordinator::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_total_;
}

void FleetCoordinator::enqueue_locked(NodeState& node,
                                      std::vector<std::uint8_t> frame) {
  node.inbox.push_back(std::move(frame));
  ++node.frames_submitted;
  ++queued_total_;
  queue_high_water_ = std::max(queue_high_water_, queued_total_);
  queue_gauge_->set(static_cast<double>(queued_total_));
  if (!node.scheduled) {
    node.scheduled = true;
    runnable_.push_back(&node);
    work_cv_.notify_one();
  }
}

void FleetCoordinator::worker_loop() {
  // One workspace per worker: FISTA scratch is sized on the first window
  // and reused for every node this worker ever serves.
  solvers::SolverWorkspace workspace;
  // Frames drained from a node per dispatch; reused so the pop itself is
  // allocation-free once warm.
  std::vector<std::vector<std::uint8_t>> frames;
  const std::size_t take = std::max<std::size_t>(config_.decode_batch, 1);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return !runnable_.empty() || closed_; });
    if (runnable_.empty()) {
      // closed_ and nothing runnable. Frames still in flight belong to a
      // node some other worker holds; that worker re-queues and drains
      // them itself, so exiting here never strands work.
      return;
    }
    NodeState* node = runnable_.pop_front();
    // Up to decode_batch frames per dispatch (one in the classic
    // configuration) keeps the pool fair across nodes: a chatty node
    // goes to the back of the line after every dispatch.
    frames.clear();
    while (frames.size() < take && !node->inbox.empty()) {
      frames.push_back(node->inbox.pop_front());
    }
    queued_total_ -= frames.size();
    queue_gauge_->set(static_cast<double>(queued_total_));
    space_cv_.notify_all();
    lock.unlock();

    process_frames(*node, frames, workspace);

    lock.lock();
    if (!node->inbox.empty()) {
      runnable_.push_back(node);
      work_cv_.notify_one();
    } else {
      node->scheduled = false;
    }
  }
}

void FleetCoordinator::process_frames(
    NodeState& node, std::vector<std::vector<std::uint8_t>>& frames,
    solvers::SolverWorkspace& workspace) {
  // All spans/metrics from these frames land in the node's own session;
  // finish() folds them into the aggregate.
  obs::ScopedSession attach(&node.session);
  for (auto& frame : frames) {
    node.coordinator.receive(std::move(frame), workspace,
                             decode_mode() == DecodeMode::kConcealOnly);
  }
  // The dispatch ends here; anything still buffered must reach the sink
  // before another worker picks this node up.
  node.coordinator.flush(workspace);
}

void FleetCoordinator::deliver(NodeState& node, const FleetWindow& window) {
  // A decoded unit's first delivery carries its latency: one group = one
  // joint solve, so latency quantiles and deadline misses stay per-solve.
  if (!window.concealed && window.lead == 0) {
    node.latency_hist->add(window.decode_seconds);
    if (window.decode_seconds > config_.deadline_seconds) {
      ++node.deadline_misses;
      node.session.registry().counter(kDeadlineMisses).add(1);
      if (config_.flight != nullptr) {
        config_.flight->record(
            obs::FlightEventId::kDeadlineMiss, node.id, window.sequence,
            static_cast<std::uint64_t>(window.decode_seconds * 1e6));
      }
    }
  }
  if (sink_) {
    sink_(window);
  }
}

FleetReport FleetCoordinator::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CSECG_CHECK(!finished_, "fleet finish() called twice");
    finished_ = true;
    closed_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }

  // Workers are gone: every node is exclusively ours now. Finish each
  // receiver so tail gaps (losses with nothing after them to expose the
  // gap) are concealed instead of silently dropped.
  solvers::SolverWorkspace workspace;
  for (auto& node : nodes_) {
    obs::ScopedSession attach(&node->session);
    node->coordinator.finish(workspace,
                             decode_mode() == DecodeMode::kConcealOnly);
  }

  FleetReport report;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  report.queue_high_water = queue_high_water_;
  report.nodes.reserve(nodes_.size());
  auto& registry = aggregate_.registry();
  for (auto& node : nodes_) {
    FleetNodeStats stats;
    static_cast<CoordinatorStats&>(stats) = node->coordinator.stats();
    stats.node_id = node->id;
    stats.frames_submitted = node->frames_submitted;
    stats.deadline_misses = node->deadline_misses;
    const obs::Histogram& hist = *node->latency_hist;
    if (hist.count() > 0) {
      stats.latency_p50_s = hist.quantile(0.50);
      stats.latency_p95_s = hist.quantile(0.95);
      stats.latency_p99_s = hist.quantile(0.99);
    }
    report.frames_submitted += stats.frames_submitted;
    report.frames_corrupt += stats.frames_corrupt;
    report.frames_rejected += stats.frames_rejected;
    report.frames_discarded += stats.frames_discarded;
    report.windows_reconstructed += stats.windows_reconstructed;
    report.windows_concealed += stats.windows_concealed;
    report.windows_shed_concealed += stats.windows_shed_concealed;
    report.profiles_applied += stats.profiles_applied;
    report.deadline_misses += stats.deadline_misses;
    report.iterations_total += stats.iterations_total;
    report.decode_seconds_total += stats.decode_seconds_total;
    report.nodes.push_back(std::move(stats));
    // Same instrument names in every node session, so this fold builds
    // the fleet-wide distributions.
    registry.merge(node->session.registry());
  }
  const obs::Histogram* aggregate_hist =
      registry.find_histogram(kDecodeSeconds);
  if (aggregate_hist != nullptr && aggregate_hist->count() > 0) {
    report.latency_p50_s = aggregate_hist->quantile(0.50);
    report.latency_p95_s = aggregate_hist->quantile(0.95);
    report.latency_p99_s = aggregate_hist->quantile(0.99);
  }
  registry.counter("fleet.windows.reconstructed")
      .add(report.windows_reconstructed);
  registry.counter("fleet.windows.concealed")
      .add(report.windows_concealed);
  if (report.windows_shed_concealed > 0) {
    registry.counter("fleet.windows.shed_concealed")
        .add(report.windows_shed_concealed);
  }
  registry.counter("fleet.frames.submitted").add(report.frames_submitted);
  registry.gauge("fleet.queue.high_water")
      .set(static_cast<double>(report.queue_high_water));
  registry.gauge("fleet.wall_seconds").set(report.wall_seconds);
  return report;
}

}  // namespace csecg::wbsn
