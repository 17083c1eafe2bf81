#include "csecg/wbsn/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "csecg/core/packet.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::wbsn {

// The decoder's operators point at its own members: it survives no move.
static_assert(!std::is_move_constructible_v<Coordinator>);

Coordinator::Coordinator(const core::DecoderConfig& config,
                         coding::HuffmanCodebook codebook,
                         const ArqConfig& arq, platform::CortexA8Model model)
    : decoder_(config, std::move(codebook)),
      model_(model),
      leads_(std::max<std::size_t>(1, decoder_.config().cs.leads)),
      arq_(arq, /*first_sequence=*/0),
      // Concealment before the first good window paints a flat line —
      // one per lead on a group stream.
      last_window_(decoder_.config().cs.window * leads_, 0.0f) {}

Coordinator::Coordinator(const core::StreamProfile& profile,
                         const ArqConfig& arq, platform::CortexA8Model model)
    : decoder_(profile),
      model_(model),
      leads_(std::max<std::size_t>(1, decoder_.config().cs.leads)),
      arq_(arq, /*first_sequence=*/0),
      last_window_(decoder_.config().cs.window * leads_, 0.0f) {}

void Coordinator::wire(Wiring wiring) {
  wiring_ = std::move(wiring);
  profile_slots_ = wiring_.announced ? 1 : 0;
  opening_ = wiring_.announced;
}

void Coordinator::recycle(std::vector<std::uint8_t>&& frame) {
  if (wiring_.recycler) {
    wiring_.recycler(std::move(frame));
  }
}

void Coordinator::record(obs::FlightEventId id, std::uint64_t a1) {
  if (wiring_.flight != nullptr) {
    wiring_.flight->record(id, wiring_.node_id, a1);
  }
}

void Coordinator::receive(std::vector<std::uint8_t> frame,
                          solvers::SolverWorkspace& workspace,
                          bool conceal_only) {
  ticks_ += 1.0;
  out_.events.clear();
  out_.feedback.clear();
  if (!core::Packet::parse_into(frame, packet_)) {
    ++stats_.frames_corrupt;
    record(obs::FlightEventId::kCrcMismatch);
    arq_.on_corrupt_frame(ticks_, out_);
    recycle(std::move(frame));
  } else if (leads_ > 1 && packet_.kind != core::PacketKind::kProfile) {
    // Group data frame: reassemble ahead of the ARQ. Profile frames ride
    // their own un-tagged sequence and go straight through.
    assemble_group(std::move(frame));
  } else {
    arq_.on_frame(packet_.sequence, std::move(frame), ticks_, out_);
  }
  // Feedback travels before the (slow) reconstruction, so NACK latency
  // is not inflated by FISTA.
  if (wiring_.feedback && !out_.feedback.empty()) {
    wiring_.feedback(std::span<const FeedbackMessage>(out_.feedback));
  }
  for (auto& event : out_.events) {
    handle_event(event, workspace, conceal_only);
    if (!event.frame.empty()) {
      recycle(std::move(event.frame));
    }
  }
}

void Coordinator::assemble_group(std::vector<std::uint8_t> frame) {
  const std::uint16_t sequence = packet_.sequence;
  const std::size_t lead = packet_.lead;
  if (lead >= leads_) {
    ++stats_.frames_rejected;
    recycle(std::move(frame));
    arq_.on_tick(ticks_, out_);
    return;
  }
  discard_stale(sequence);
  auto& slots = assembling_[sequence];
  if (slots.empty()) {
    slots.resize(leads_);
  }
  if (!slots[lead].empty()) {
    // Same lead twice (a group retransmission overlapping a late
    // original): keep the first copy.
    recycle(std::move(frame));
    arq_.on_tick(ticks_, out_);
    return;
  }
  slots[lead] = std::move(frame);
  const bool complete =
      std::none_of(slots.begin(), slots.end(),
                   [](const std::vector<std::uint8_t>& f) {
                     return f.empty();
                   });
  if (complete) {
    ready_groups_[sequence] = std::move(slots);
    assembling_.erase(sequence);
    // The completed group enters the ARQ as one unit: an empty
    // placeholder buffer under the shared sequence. handle_event
    // resolves released sequences back through ready_groups_.
    arq_.on_frame(sequence, {}, ticks_, out_);
  } else {
    // Partial group: no ARQ arrival yet (the sequence must still read
    // as missing so the gap NACKs), but the clock advanced.
    arq_.on_tick(ticks_, out_);
  }
  // Backstop against stale partials that no event will ever clear
  // (frames of an already-abandoned sequence trickling in late): the
  // oldest goes first.
  while (assembling_.size() > arq_.config().rx_reorder + 4) {
    discard_assembly(assembling_.begin()->first);
  }
}

void Coordinator::discard_assembly(std::uint16_t sequence) {
  const auto partial = assembling_.find(sequence);
  if (partial != assembling_.end()) {
    for (auto& frame : partial->second) {
      if (!frame.empty()) {
        ++stats_.frames_discarded;
        recycle(std::move(frame));
      }
    }
    assembling_.erase(partial);
  }
  const auto parked = ready_groups_.find(sequence);
  if (parked != ready_groups_.end()) {
    for (auto& frame : parked->second) {
      ++stats_.frames_discarded;
      recycle(std::move(frame));
    }
    ready_groups_.erase(parked);
  }
}

void Coordinator::discard_stale(std::uint16_t sequence) {
  const auto stale = [sequence](std::uint16_t parked) {
    return std::abs(static_cast<std::int16_t>(
               static_cast<std::uint16_t>(sequence - parked))) >=
           kStaleDistance;
  };
  // The parked keys span under half the sequence space, so the stale
  // ones sit at the ends of the map's order.
  for (GroupFrames* parked : {&assembling_, &ready_groups_}) {
    while (!parked->empty() && stale(parked->begin()->first)) {
      discard_assembly(parked->begin()->first);
    }
    while (!parked->empty() && stale(parked->rbegin()->first)) {
      discard_assembly(parked->rbegin()->first);
    }
  }
}

void Coordinator::handle_event(ArqReceiver::Event& event,
                               solvers::SolverWorkspace& workspace,
                               bool conceal_only) {
  // An announced stream's first event, at sequence 0, is its opening
  // announcement (or its loss), already counted in profile_slots_.
  const bool opening = std::exchange(opening_, false) && event.sequence == 0;
  const auto slot =
      static_cast<std::uint16_t>(event.sequence - profile_slots_);
  if (event.lost) {
    if (opening) {
      return;  // the lost announcement took no window with it
    }
    flush(workspace);
    // A lost group sequence conceals whole; drop any partial assembly of
    // it so late stragglers cannot resurrect a concealed window. The
    // dropped siblings are counted (and recycled) so the frame ledger
    // still balances.
    discard_assembly(event.sequence);
    conceal(slot, event.sequence);
    return;
  }
  // The decodable unit: a group window the ARQ released through its
  // placeholder, else the event's own frame — a single-lead window is
  // the lead group of one.
  bool parsed = true;
  std::span<const core::Packet> unit;
  const auto ready = leads_ > 1 ? ready_groups_.find(event.sequence)
                                : ready_groups_.end();
  if (ready != ready_groups_.end()) {
    auto& frames = ready->second;
    if (group_packets_.size() < frames.size()) {
      group_packets_.resize(frames.size());
    }
    for (std::size_t l = 0; parsed && l < frames.size(); ++l) {
      parsed = core::Packet::parse_into(frames[l], group_packets_[l]);
    }
    unit = std::span<const core::Packet>(group_packets_.data(),
                                         frames.size());
    for (auto& frame : frames) {
      recycle(std::move(frame));
    }
    ready_groups_.erase(ready);
  } else {
    parsed = core::Packet::parse_into(event.frame, packet_);
    unit = std::span<const core::Packet>(&packet_, 1);
    if (parsed && packet_.kind == core::PacketKind::kProfile) {
      // In-band re-profile changes the decode geometry out from under any
      // pending rows, and its slot ordering matters to the owner: drain
      // them first.
      flush(workspace);
      profile_slots_ += opening ? 0 : 1;
      if (decoder_.consume(packet_, y_scratch_) ==
          core::Decoder::FrameOutcome::kProfileApplied) {
        ++stats_.profiles_applied;
        record(obs::FlightEventId::kProfileApplied);
        leads_ = std::max<std::size_t>(1, decoder_.config().cs.leads);
        if (last_window_.size() != decoder_.config().cs.window * leads_) {
          // The concealment reference is in the old geometry.
          last_window_.assign(decoder_.config().cs.window * leads_, 0.0f);
        }
      } else {
        ++stats_.frames_rejected;
        record(obs::FlightEventId::kFrameRejected, slot);
      }
      return;
    }
  }
  // The first pending unit entropy-decodes straight into the pending
  // rows, so a stream that flushes every unit keeps one measurement
  // buffer; a later one (decode_batch > 1) decodes aside and appends.
  const bool first = pending_slots_.empty();
  std::vector<std::int32_t>& y = first ? y_flat_ : y_scratch_;
  if (!parsed || !decoder_.decode_group_measurements_into(unit, y)) {
    flush(workspace);
    // CRC-clean but undecodable: typically a differential stranded
    // behind an abandoned gap, waiting for the forced keyframe. Conceal
    // it rather than skip the slot; one bad lead sinks its whole group.
    // Every frame of the unit is charged, keeping rejects in frame units.
    stats_.frames_rejected += unit.size();
    record(obs::FlightEventId::kFrameRejected, slot);
    conceal(slot, event.sequence);
    return;
  }
  if (conceal_only) {
    // Shed by the admission tier: the entropy decode above advanced every
    // lead's differential chain (y holds the exact y_t), so the stream
    // resumes exact decodes once pressure clears, but the solve is
    // skipped and the viewer gets a concealment, all leads together.
    flush(workspace);
    ++stats_.windows_shed_concealed;
    conceal(slot, event.sequence);
    return;
  }
  // Entropy decode ran (it is sequential inter-packet state); the
  // reconstruction joins the pending rows. A group is one joint solve
  // and flushes at once; single-lead windows batch up to decode_batch.
  if (!first) {
    y_flat_.insert(y_flat_.end(), y.begin(), y.end());
  }
  pending_slots_.push_back(slot);
  pending_wires_.push_back(event.sequence);
  if (unit.size() > 1 || pending_slots_.size() >= wiring_.decode_batch) {
    flush(workspace);
  }
}

void Coordinator::flush(solvers::SolverWorkspace& workspace) {
  const std::size_t units = pending_slots_.size();
  if (units == 0) {
    return;
  }
  // Only a group stream pends groups, one at a time; a single-lead
  // stream's units are rows of one batch panel.
  const std::size_t leads = leads_;
  const bool group = leads > 1;
  const bool batched = !group && wiring_.decode_batch > 1;
  const bool counting = decoder_.backend().counting() != nullptr;
  const std::size_t rows = units * leads;
  if (window_batch_.size() < rows) {
    window_batch_.resize(rows);
  }
  const std::span<core::DecodedWindow<float>> windows(window_batch_.data(),
                                                      rows);
  const std::span<const std::int32_t> y_flat(y_flat_);
  linalg::OpCounterScope ops;
  const auto start = std::chrono::steady_clock::now();
  {
    obs::SpanScope span(group     ? "window.decode.group"
                        : batched ? "window.decode.batch"
                                  : "window.decode",
                        batched ? obs::kNoSequence : pending_wires_.front());
    if (group) {
      span.attribute("leads", static_cast<double>(leads));
      decoder_.reconstruct_group_into<float>(y_flat, workspace, windows);
    } else {
      if (batched) {
        span.attribute("batch", static_cast<double>(units));
      }
      decoder_.reconstruct_batch_into<float>(y_flat, units, workspace,
                                             windows);
    }
    if (!batched) {
      span.attribute("iterations",
                     static_cast<double>(windows.front().iterations));
    }
    if (counting) {
      span.attribute("modelled_seconds", model_.seconds(ops.counts()));
    }
  }
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (counting) {
    const double modelled_s = model_.seconds(ops.counts());
    stats_.ops_total += ops.counts();
    stats_.modelled_seconds_total += modelled_s;
    obs::observe("coordinator.decode.modelled_seconds", modelled_s);
  }
  // The solver sweeps the pending units in one call, so each unit's
  // latency is its share of that call — the number a deadline monitor
  // cares about is "how long did this window occupy a worker".
  const double unit_s = total_s / static_cast<double>(units);
  for (std::size_t u = 0; u < units; ++u) {
    const auto unit = windows.subspan(u * leads, leads);
    // One group = one schedulable unit = one joint solve: the stats count
    // it once, so latency quantiles and deadline misses stay per-solve.
    ++stats_.windows_reconstructed;
    stats_.decode_seconds_total += unit_s;
    stats_.iterations_total += static_cast<double>(unit.front().iterations);
    if (wiring_.deliver) {
      for (std::size_t l = 0; l < leads; ++l) {
        FleetWindow window;
        window.node_id = wiring_.node_id;
        window.sequence = pending_slots_[u];
        window.wire_sequence = pending_wires_[u];
        window.concealed = false;
        window.decode_seconds = unit_s;
        window.iterations = unit[l].iterations;
        window.lead = static_cast<std::uint8_t>(l);
        window.samples = std::span<const float>(unit[l].samples);
        wiring_.deliver(window);
      }
    }
  }
  // The last unit, every lead of it, is the next concealment reference.
  const std::size_t n = decoder_.config().cs.window;
  last_window_.resize(leads * n);
  for (std::size_t l = 0; l < leads; ++l) {
    const auto& samples = windows[rows - leads + l].samples;
    std::copy(samples.begin(), samples.end(),
              last_window_.begin() + static_cast<std::ptrdiff_t>(l * n));
  }
  // clear() keeps capacity: the next flush reuses the same storage.
  y_flat_.clear();
  pending_slots_.clear();
  pending_wires_.clear();
}

void Coordinator::conceal(std::uint16_t sequence,
                          std::uint16_t wire_sequence) {
  // A concealed window breaks the neighbour chain the warm prior relies
  // on: the next decoded window's true predecessor was never
  // reconstructed, so the stale solution must not seed it. Covers loss
  // gaps, shed windows and rejected frames alike.
  decoder_.invalidate_prior();
  ++stats_.windows_concealed;
  if (!wiring_.deliver) {
    return;
  }
  // A group conceals all its leads together (one FleetWindow per lead,
  // same sequence); a single-lead stream gets the classic single
  // delivery.
  const std::size_t n = last_window_.size() / leads_;
  for (std::size_t l = 0; l < leads_; ++l) {
    FleetWindow window;
    window.node_id = wiring_.node_id;
    window.sequence = sequence;
    window.wire_sequence = wire_sequence;
    window.concealed = true;
    window.lead = static_cast<std::uint8_t>(l);
    window.samples = std::span<const float>(last_window_.data() + l * n, n);
    wiring_.deliver(window);
  }
}

void Coordinator::finish(solvers::SolverWorkspace& workspace,
                         bool conceal_only) {
  // Tail gaps (losses with nothing after them to expose the gap) are
  // concealed instead of silently dropped.
  out_.events.clear();
  out_.feedback.clear();
  arq_.finish(ticks_, out_);
  if (wiring_.feedback && !out_.feedback.empty()) {
    wiring_.feedback(std::span<const FeedbackMessage>(out_.feedback));
  }
  for (auto& event : out_.events) {
    handle_event(event, workspace, conceal_only);
  }
  flush(workspace);
  // Tail partials the ARQ never saw (a group whose first frames arrived
  // but whose siblings were lost or shed, with no later sequence to
  // expose the gap): conceal whole, oldest first, and account the
  // stranded frames.
  while (!assembling_.empty() || !ready_groups_.empty()) {
    const std::uint16_t sequence = assembling_.empty()
                                       ? ready_groups_.begin()->first
                                       : assembling_.begin()->first;
    discard_assembly(sequence);
    conceal(static_cast<std::uint16_t>(sequence - profile_slots_), sequence);
  }
}

double Coordinator::cpu_usage(double packet_period_s) const {
  CSECG_CHECK(packet_period_s > 0.0, "packet period must be positive");
  if (stats_.windows_reconstructed == 0) {
    return 0.0;
  }
  return stats_.modelled_seconds_total /
         (static_cast<double>(stats_.windows_reconstructed) *
          packet_period_s);
}

}  // namespace csecg::wbsn
