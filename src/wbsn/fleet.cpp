#include "csecg/wbsn/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "csecg/core/packet.hpp"
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
/// flag), except for inbox/stats.frames_submitted which submit() updates
/// under the fleet mutex.
struct FleetCoordinator::NodeState {
  /// \p decoder_args construct the node's Decoder in place: a
  /// (DecoderConfig, HuffmanCodebook) pair or a StreamProfile.
  template <typename... DecoderArgs>
  explicit NodeState(const ArqConfig& arq_config,
                     DecoderArgs&&... decoder_args)
      : decoder(std::forward<DecoderArgs>(decoder_args)...),
        leads(std::max<std::size_t>(1, decoder.config().cs.leads)),
        arq(arq_config, /*first_sequence=*/0),
        latency_hist(&session.registry().histogram(kDecodeSeconds)),
        // Concealment before the first good window paints a flat line —
        // one per lead on a group stream.
        last_window(decoder.config().cs.window * leads, 0.0f) {}

  std::uint32_t id = 0;
  core::Decoder decoder;
  /// Lead-group width of the stream (1 = classic single-lead). Updated
  /// when an in-band re-profile changes it.
  std::size_t leads;
  ArqReceiver arq;
  obs::Session session;
  obs::Histogram* latency_hist;
  detail::Ring<std::vector<std::uint8_t>> inbox;
  /// Parse target reused for every frame of this node (payload capacity
  /// survives), keeping the worker's parse step allocation-free.
  core::Packet packet_scratch;
  bool scheduled = false;
  double ticks = 0.0;  ///< frames processed: the node's ARQ clock
  /// kProfile frames consume wire sequence numbers but carry no window;
  /// subtracting the running count maps a frame's sequence back to the
  /// sender's input-window index for the sink. Zero on v0 streams.
  std::uint16_t profile_slots = 0;
  std::vector<float> last_window;  ///< last good reconstruction, all leads
  // Per-node decode scratch, reused every window (allocation-free once
  // warm; the worker's SolverWorkspace holds the solver half). A
  // decodable unit — a single-lead window or a whole lead group —
  // entropy-decodes and joins the pending rows until flush_pending
  // reconstructs them: y_flat holds the integer measurement rows back
  // to back (y_scratch stages the second and later units of a batch),
  // sink_slots and sink_wires each unit's input-window index and wire
  // sequence. window_batch never shrinks, so a partial flush does not
  // drop warmed sample buffers.
  std::vector<std::int32_t> y_scratch;
  std::vector<std::int32_t> y_flat;
  std::vector<std::uint16_t> sink_slots;
  std::vector<std::uint16_t> sink_wires;
  std::vector<core::DecodedWindow<float>> window_batch;
  /// Lead-group reassembly (leads > 1). A group window's frames share
  /// one sequence, which the one-buffer-per-sequence ArqReceiver cannot
  /// hold, so data frames park here per sequence (indexed by lead tag)
  /// until all leads arrived; the completed group moves to ready_groups
  /// and a placeholder enters the ARQ. Partial groups are repaired by
  /// the normal NACK path — the transmitter resends the whole group —
  /// and abandoned sequences conceal whole.
  std::map<std::uint16_t, std::vector<std::vector<std::uint8_t>>>
      assembling;
  std::map<std::uint16_t, std::vector<std::vector<std::uint8_t>>>
      ready_groups;
  /// Group parse targets, one per lead, kept like packet_scratch.
  std::vector<core::Packet> group_packets;
  FleetNodeStats stats;
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
  if (config_.backend != nullptr) {
    node->decoder.set_backend(*config_.backend);
  }
  node->decoder.set_prior_policy(config_.prior);
  if (!config_.trace_spans) {
    node->session.tracer().set_enabled(false);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CSECG_CHECK(!closed_, "fleet already finished");
  node->id = static_cast<std::uint32_t>(nodes_.size());
  node->stats.node_id = node->id;
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
    recycle(std::move(frame));
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
  ++node.stats.frames_submitted;
  ++queued_total_;
  queue_high_water_ = std::max(queue_high_water_, queued_total_);
  queue_gauge_->set(static_cast<double>(queued_total_));
  if (!node.scheduled) {
    node.scheduled = true;
    runnable_.push_back(&node);
    work_cv_.notify_one();
  }
}

void FleetCoordinator::recycle(std::vector<std::uint8_t>&& frame) {
  if (config_.frame_recycler) {
    config_.frame_recycler(std::move(frame));
  }
}

void FleetCoordinator::worker_loop() {
  // One workspace per worker: FISTA scratch is sized on the first window
  // and reused for every node this worker ever serves.
  solvers::SolverWorkspace workspace;
  // Frames drained from a node per dispatch; reused so the pop itself is
  // allocation-free once warm.
  std::vector<std::vector<std::uint8_t>> frames;
  // ARQ decision buffer, reused for every frame this worker processes.
  ArqReceiver::Output out;
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

    process_frames(*node, frames, out, workspace);

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
    ArqReceiver::Output& out, solvers::SolverWorkspace& workspace) {
  // All spans/metrics from these frames land in the node's own session;
  // finish() folds them into the aggregate.
  obs::ScopedSession attach(&node.session);
  for (auto& frame : frames) {
    node.ticks += 1.0;
    out.events.clear();
    out.feedback.clear();
    if (!core::Packet::parse_into(frame, node.packet_scratch)) {
      ++node.stats.frames_corrupt;
      if (config_.flight != nullptr) {
        config_.flight->record(obs::FlightEventId::kCrcMismatch, node.id);
      }
      node.arq.on_corrupt_frame(node.ticks, out);
      recycle(std::move(frame));
    } else if (node.leads > 1 &&
               node.packet_scratch.kind != core::PacketKind::kProfile) {
      // Group data frame: reassemble ahead of the ARQ. Profile frames
      // ride their own un-tagged sequence and go straight through.
      assemble_group(node, std::move(frame), out);
    } else {
      node.arq.on_frame(node.packet_scratch.sequence, std::move(frame),
                        node.ticks, out);
    }
    if (feedback_ && !out.feedback.empty()) {
      feedback_(node.id, std::span<const FeedbackMessage>(out.feedback));
    }
    for (auto& event : out.events) {
      handle_event(node, event, workspace);
      if (!event.frame.empty()) {
        recycle(std::move(event.frame));
      }
    }
  }
  // The dispatch ends here; anything still buffered must reach the sink
  // before another worker picks this node up.
  flush_pending(node, workspace);
}

void FleetCoordinator::assemble_group(NodeState& node,
                                      std::vector<std::uint8_t> frame,
                                      ArqReceiver::Output& out) {
  const std::uint16_t sequence = node.packet_scratch.sequence;
  const std::size_t lead = node.packet_scratch.lead;
  if (lead >= node.leads) {
    ++node.stats.frames_rejected;
    recycle(std::move(frame));
    node.arq.on_tick(node.ticks, out);
    return;
  }
  auto& slots = node.assembling[sequence];
  if (slots.empty()) {
    slots.resize(node.leads);
  }
  if (!slots[lead].empty()) {
    // Same lead twice (a group retransmission overlapping a late
    // original): keep the first copy.
    recycle(std::move(frame));
    node.arq.on_tick(node.ticks, out);
    return;
  }
  slots[lead] = std::move(frame);
  const bool complete =
      std::none_of(slots.begin(), slots.end(),
                   [](const std::vector<std::uint8_t>& f) {
                     return f.empty();
                   });
  if (complete) {
    node.ready_groups[sequence] = std::move(slots);
    node.assembling.erase(sequence);
    // The completed group enters the ARQ as one unit: an empty
    // placeholder buffer under the shared sequence. handle_event
    // resolves released sequences back through ready_groups.
    node.arq.on_frame(sequence, {}, node.ticks, out);
  } else {
    // Partial group: no ARQ arrival yet (the sequence must still read
    // as missing so the gap NACKs), but the clock advanced.
    node.arq.on_tick(node.ticks, out);
  }
  // Backstop against stale partials that no event will ever clear
  // (frames of an already-abandoned sequence trickling in late).
  while (node.assembling.size() > config_.arq.rx_reorder + 4) {
    discard_assembly(node, node.assembling.begin()->first);
  }
}

void FleetCoordinator::discard_assembly(NodeState& node,
                                        std::uint16_t sequence) {
  const auto partial = node.assembling.find(sequence);
  if (partial != node.assembling.end()) {
    for (auto& frame : partial->second) {
      if (!frame.empty()) {
        ++node.stats.frames_discarded;
        recycle(std::move(frame));
      }
    }
    node.assembling.erase(partial);
  }
  const auto parked = node.ready_groups.find(sequence);
  if (parked != node.ready_groups.end()) {
    for (auto& frame : parked->second) {
      ++node.stats.frames_discarded;
      recycle(std::move(frame));
    }
    node.ready_groups.erase(parked);
  }
}

void FleetCoordinator::handle_event(NodeState& node,
                                    ArqReceiver::Event& event,
                                    solvers::SolverWorkspace& workspace) {
  const auto slot =
      static_cast<std::uint16_t>(event.sequence - node.profile_slots);
  if (event.lost) {
    flush_pending(node, workspace);
    // A lost group sequence conceals whole; drop any partial assembly of
    // it so late stragglers cannot resurrect a concealed window. The
    // dropped siblings are counted (and recycled) so the frame ledger
    // still balances.
    discard_assembly(node, event.sequence);
    conceal(node, slot, event.sequence);
    return;
  }
  // The decodable unit: a group window the ARQ released through its
  // placeholder, else the event's own frame — a single-lead window is
  // the lead group of one.
  bool parsed = true;
  std::span<const core::Packet> unit;
  const auto ready = node.leads > 1 ? node.ready_groups.find(event.sequence)
                                    : node.ready_groups.end();
  if (ready != node.ready_groups.end()) {
    auto& frames = ready->second;
    if (node.group_packets.size() < frames.size()) {
      node.group_packets.resize(frames.size());
    }
    for (std::size_t l = 0; parsed && l < frames.size(); ++l) {
      parsed = core::Packet::parse_into(frames[l], node.group_packets[l]);
    }
    unit = std::span<const core::Packet>(node.group_packets.data(),
                                         frames.size());
    for (auto& frame : frames) {
      recycle(std::move(frame));
    }
    node.ready_groups.erase(ready);
  } else {
    parsed = core::Packet::parse_into(event.frame, node.packet_scratch);
    unit = std::span<const core::Packet>(&node.packet_scratch, 1);
    if (parsed && node.packet_scratch.kind == core::PacketKind::kProfile) {
      // In-band re-profile changes the decode geometry out from under any
      // pending rows, and its slot ordering matters to the sink: drain
      // them first.
      flush_pending(node, workspace);
      ++node.profile_slots;
      if (node.decoder.consume(node.packet_scratch, node.y_scratch) ==
          core::Decoder::FrameOutcome::kProfileApplied) {
        ++node.stats.profiles_applied;
        if (config_.flight != nullptr) {
          config_.flight->record(obs::FlightEventId::kProfileApplied,
                                 node.id);
        }
        node.leads =
            std::max<std::size_t>(1, node.decoder.config().cs.leads);
        if (node.last_window.size() !=
            node.decoder.config().cs.window * node.leads) {
          // The concealment reference is in the old geometry.
          node.last_window.assign(
              node.decoder.config().cs.window * node.leads, 0.0f);
        }
      } else {
        ++node.stats.frames_rejected;
        if (config_.flight != nullptr) {
          config_.flight->record(obs::FlightEventId::kFrameRejected, node.id,
                                 slot);
        }
      }
      return;
    }
  }
  // The first pending unit entropy-decodes straight into the pending
  // rows, so a node that flushes every unit keeps one measurement
  // buffer; a later one (decode_batch > 1) decodes aside and appends.
  const bool first = node.sink_slots.empty();
  std::vector<std::int32_t>& y = first ? node.y_flat : node.y_scratch;
  if (!parsed || !node.decoder.decode_group_measurements_into(unit, y)) {
    flush_pending(node, workspace);
    // CRC-clean but undecodable: typically a differential stranded
    // behind an abandoned gap, waiting for the forced keyframe. Conceal
    // it rather than skip the slot; one bad lead sinks its whole group.
    // Every frame of the unit is charged, keeping rejects in frame units.
    node.stats.frames_rejected += unit.size();
    if (config_.flight != nullptr) {
      config_.flight->record(obs::FlightEventId::kFrameRejected, node.id,
                             slot);
    }
    conceal(node, slot, event.sequence);
    return;
  }
  if (decode_mode() == DecodeMode::kConcealOnly) {
    // Shed by the admission tier: the entropy decode above advanced every
    // lead's differential chain (y holds the exact y_t), so the
    // stream resumes exact decodes once pressure clears, but the solve
    // is skipped and the viewer gets a concealment, all leads together.
    flush_pending(node, workspace);
    ++node.stats.windows_shed_concealed;
    conceal(node, slot, event.sequence);
    return;
  }
  // Entropy decode ran (it is sequential inter-packet state); the
  // reconstruction joins the node's pending rows. A group is one joint
  // solve and flushes at once; single-lead windows batch up to
  // decode_batch.
  if (!first) {
    node.y_flat.insert(node.y_flat.end(), y.begin(), y.end());
  }
  node.sink_slots.push_back(slot);
  node.sink_wires.push_back(event.sequence);
  if (unit.size() > 1 || node.sink_slots.size() >= config_.decode_batch) {
    flush_pending(node, workspace);
  }
}

void FleetCoordinator::flush_pending(NodeState& node,
                                     solvers::SolverWorkspace& workspace) {
  const std::size_t units = node.sink_slots.size();
  if (units == 0) {
    return;
  }
  // Only a group node pends groups, one at a time; a single-lead node's
  // units are rows of one batch panel.
  const std::size_t leads = node.leads;
  const bool group = leads > 1;
  const bool batched = !group && config_.decode_batch > 1;
  const std::size_t rows = units * leads;
  if (node.window_batch.size() < rows) {
    node.window_batch.resize(rows);
  }
  const std::span<core::DecodedWindow<float>> windows(
      node.window_batch.data(), rows);
  const std::span<const std::int32_t> y_flat(node.y_flat);
  const auto start = std::chrono::steady_clock::now();
  {
    obs::SpanScope span(group     ? "window.decode.group"
                        : batched ? "window.decode.batch"
                                  : "window.decode",
                        batched ? obs::kNoSequence : node.sink_wires.front());
    if (group) {
      span.attribute("leads", static_cast<double>(leads));
      node.decoder.reconstruct_group_into<float>(y_flat, workspace, windows);
    } else {
      if (batched) {
        span.attribute("batch", static_cast<double>(units));
      }
      node.decoder.reconstruct_batch_into<float>(y_flat, units, workspace,
                                                 windows);
    }
    if (!batched) {
      span.attribute("iterations",
                     static_cast<double>(windows.front().iterations));
    }
  }
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The solver sweeps the pending units in one call, so each unit's
  // latency is its share of that call — the number the deadline monitor
  // cares about is "how long did this window occupy a worker".
  const double unit_s = total_s / static_cast<double>(units);
  for (std::size_t u = 0; u < units; ++u) {
    const auto unit = windows.subspan(u * leads, leads);
    // One group = one schedulable unit = one joint solve: the stats count
    // it once, so latency quantiles and deadline misses stay per-solve.
    ++node.stats.windows_reconstructed;
    node.stats.decode_seconds_total += unit_s;
    node.stats.iterations_total +=
        static_cast<double>(unit.front().iterations);
    node.latency_hist->add(unit_s);
    if (unit_s > config_.deadline_seconds) {
      ++node.stats.deadline_misses;
      node.session.registry().counter(kDeadlineMisses).add(1);
      if (config_.flight != nullptr) {
        config_.flight->record(obs::FlightEventId::kDeadlineMiss, node.id,
                               node.sink_slots[u],
                               static_cast<std::uint64_t>(unit_s * 1e6));
      }
    }
    if (sink_) {
      for (std::size_t l = 0; l < leads; ++l) {
        FleetWindow window;
        window.node_id = node.id;
        window.sequence = node.sink_slots[u];
        window.wire_sequence = node.sink_wires[u];
        window.concealed = false;
        window.decode_seconds = unit_s;
        window.iterations = unit[l].iterations;
        window.lead = static_cast<std::uint8_t>(l);
        window.samples = std::span<const float>(unit[l].samples);
        sink_(window);
      }
    }
  }
  // The last unit, every lead of it, is the next concealment reference.
  const std::size_t n = node.decoder.config().cs.window;
  node.last_window.resize(leads * n);
  for (std::size_t l = 0; l < leads; ++l) {
    const auto& samples = windows[rows - leads + l].samples;
    std::copy(samples.begin(), samples.end(),
              node.last_window.begin() + static_cast<std::ptrdiff_t>(l * n));
  }
  // clear() keeps capacity: the next flush reuses the same storage.
  node.y_flat.clear();
  node.sink_slots.clear();
  node.sink_wires.clear();
}

void FleetCoordinator::conceal(NodeState& node, std::uint16_t sequence,
                               std::uint16_t wire_sequence) {
  // A concealed window breaks the neighbour chain the warm prior relies
  // on: the next decoded window's true predecessor was never
  // reconstructed, so the stale solution must not seed it. Covers loss
  // gaps, shed (kConcealOnly) windows and rejected frames alike.
  node.decoder.invalidate_prior();
  ++node.stats.windows_concealed;
  if (sink_) {
    // A group node conceals all its leads together (one FleetWindow per
    // lead, same sequence); a single-lead node emits the classic single
    // delivery.
    const std::size_t n = node.last_window.size() / node.leads;
    for (std::size_t l = 0; l < node.leads; ++l) {
      FleetWindow window;
      window.node_id = node.id;
      window.sequence = sequence;
      window.wire_sequence = wire_sequence;
      window.concealed = true;
      window.lead = static_cast<std::uint8_t>(l);
      window.samples =
          std::span<const float>(node.last_window.data() + l * n, n);
      sink_(window);
    }
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

  // Workers are gone: every node is exclusively ours now. Flush the ARQ
  // receivers so tail gaps (losses with nothing after them to expose the
  // gap) are concealed instead of silently dropped.
  solvers::SolverWorkspace workspace;
  for (auto& node : nodes_) {
    obs::ScopedSession attach(&node->session);
    auto out = node->arq.finish(node->ticks);
    if (feedback_ && !out.feedback.empty()) {
      feedback_(node->id, std::span<const FeedbackMessage>(out.feedback));
    }
    for (auto& event : out.events) {
      handle_event(*node, event, workspace);
    }
    flush_pending(*node, workspace);
    // Tail partials the ARQ never saw (a group whose first frames arrived
    // but whose siblings were shed, with no later sequence to expose the
    // gap): conceal whole and account the stranded frames.
    while (!node->assembling.empty() || !node->ready_groups.empty()) {
      const std::uint16_t sequence =
          node->assembling.empty() ? node->ready_groups.begin()->first
                                   : node->assembling.begin()->first;
      discard_assembly(*node, sequence);
      conceal(*node,
              static_cast<std::uint16_t>(sequence - node->profile_slots),
              sequence);
    }
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
    FleetNodeStats stats = node->stats;
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
