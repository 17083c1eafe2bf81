#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "csecg/ecg/database.hpp"
#include "csecg/util/rng.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace perfbench {

namespace {

/// Holter recordings are replayed as fast as the decoder takes them, so
/// their length sets the run time: windows per recording per requested
/// second, calibrated so 16 recordings at CR 50 keep two cold decode
/// workers busy for about --seconds on a 4-core x86 host.
constexpr double kHolterWindowsPerSecond = 5.8;

/// The synthetic corpus is the same for every seed (the repository's
/// corpus seed): the run seed picks which record, offset, sensing seed
/// and loss pattern each node gets. Balanced over all records, a run's
/// quality figures then vary little from seed to seed.
constexpr std::uint64_t kCorpusSeed = 2011;
constexpr std::size_t kCorpusRecords = 16;
/// Windows of slack per record, so nodes start at seeded offsets.
constexpr std::size_t kSpareWindows = 10;

std::size_t ticks_for(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / 2.0)));
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WorkloadSpec make_spec(const std::string& name, double seconds,
                       std::size_t nodes, std::size_t windows) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "ward") {
    // Live monitoring of a hospital ward (open loop, one window per
    // patient every 2 s, lossless link). Warm + weighted-l1 solves take
    // ~200 iterations, so the per-window fixed costs (ingest, parse,
    // entropy decode, lambda calibration, IDWT) are a visible share; p50
    // reads the warm path and p99 the staggered cold keyframes. Three
    // shared CR profiles. The patient count keeps each of the two
    // workers about a third busy on a 4-core host, so host drift is not
    // amplified into queueing, while the patients' decoder state still
    // exceeds a 2 MB L2.
    spec.nodes = 132;
    spec.crs = {30.0, 50.0, 70.0};
    spec.shared_profiles = true;
    spec.keyframe_interval = 16;
    spec.stagger_keyframes = true;
    spec.windows = ticks_for(seconds);
    spec.shards = 2;
    spec.workers_per_shard = 1;
    spec.decode_batch = 1;
    spec.queue_depth = 256;
    spec.prior.warm_start = true;
    spec.prior.weighted_l1 = true;
    spec.verify_nodes = 12;
  } else if (name == "holter") {
    // Offline replay of recorded Holter streams (closed loop: one
    // uploader kept blocked in FleetCoordinator::submit). Cold decode
    // (~1000 iterations at CR 50) through 4-row panels puts the time in
    // the per-iteration kernels; cold also keeps every panel's result
    // independent of how many frames happened to be queued. Bypasses
    // gateway ingest, warm priors and profile sharing; fits in cache.
    spec.open_loop = false;
    spec.nodes = 16;
    spec.crs = {50.0};
    spec.shared_profiles = false;
    spec.windows = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(seconds *
                                                kHolterWindowsPerSecond)));
    spec.shards = 1;
    spec.workers_per_shard = 2;
    spec.decode_batch = 4;
    spec.queue_depth = 16;
    spec.verify_nodes = 2;
  } else if (name == "leads3") {
    // 3-lead patients on a lossy Bluetooth link (open loop). The only
    // workload that runs lead-group assembly, NACK/retransmit and the
    // joint l2,1 group solve on 3-row panels. p50 reads the warm group
    // solve; p99 reads the ARQ recovery delay, which follows the tick
    // schedule and so repeats from run to run. One scheduled frame loss
    // per patient makes ~8 % of windows wait one tick for their
    // retransmission, well above 1 %; the 0.1 % Gilbert-Elliott loss on
    // top is kept low because a lost retransmission stalls a patient's
    // stream for several ticks, which would move p99 off that plateau.
    spec.nodes = 64;
    spec.leads = 3;
    spec.crs = {50.0};
    spec.shared_profiles = false;
    spec.keyframe_interval = 32;
    spec.stagger_keyframes = true;
    spec.windows = ticks_for(seconds);
    spec.link.loss_rate = 0.001;
    spec.link.mean_burst_frames = 1.3;
    spec.scheduled_drop = true;
    spec.shards = 2;
    spec.workers_per_shard = 1;
    spec.decode_batch = 1;
    spec.queue_depth = 256;
    spec.prior.warm_start = true;
    spec.verify_nodes = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (ward | holter | leads3)");
  }
  if (nodes > 0) {
    spec.nodes = nodes;
  }
  if (windows > 0) {
    spec.windows = windows;
  }
  spec.verify_nodes = std::min(spec.verify_nodes, spec.nodes);
  return spec;
}

ReceiverReplica::ReceiverReplica(const wbsn::ArqConfig& arq,
                                 std::size_t leads)
    : config_(arq), arq_(arq, /*first_sequence=*/0), leads_(leads) {}

const std::vector<wbsn::FeedbackMessage>& ReceiverReplica::on_frame(
    std::vector<std::uint8_t> frame, std::int64_t arrival, NodeInput& node) {
  ticks_ += 1.0;
  out_.events.clear();
  out_.feedback.clear();
  if (!core::Packet::parse_into(frame, packet_)) {
    arq_.on_corrupt_frame(ticks_, out_);
  } else if (leads_ > 1 && packet_.kind != core::PacketKind::kProfile) {
    assemble(std::move(frame));
  } else {
    arq_.on_frame(packet_.sequence, std::move(frame), ticks_, out_);
  }
  node.feedback.insert(node.feedback.end(), out_.feedback.begin(),
                       out_.feedback.end());
  for (auto& event : out_.events) {
    handle(event, arrival, node);
  }
  return out_.feedback;
}

void ReceiverReplica::assemble(std::vector<std::uint8_t> frame) {
  const std::uint16_t sequence = packet_.sequence;
  const std::size_t lead = packet_.lead;
  if (lead >= leads_) {
    arq_.on_tick(ticks_, out_);
    return;
  }
  auto& slots = assembling_[sequence];
  if (slots.empty()) {
    slots.resize(leads_);
  }
  if (!slots[lead].empty()) {
    arq_.on_tick(ticks_, out_);
    return;
  }
  slots[lead] = std::move(frame);
  const bool complete = std::none_of(
      slots.begin(), slots.end(),
      [](const std::vector<std::uint8_t>& f) { return f.empty(); });
  if (complete) {
    ready_[sequence] = std::move(slots);
    assembling_.erase(sequence);
    arq_.on_frame(sequence, {}, ticks_, out_);
  } else {
    arq_.on_tick(ticks_, out_);
  }
  while (assembling_.size() > config_.rx_reorder + 4) {
    discard(assembling_.begin()->first);
  }
}

void ReceiverReplica::discard(std::uint16_t sequence) {
  assembling_.erase(sequence);
  ready_.erase(sequence);
}

void ReceiverReplica::handle(wbsn::ArqReceiver::Event& event,
                             std::int64_t arrival, NodeInput& node) {
  released_[event.sequence] = true;
  if (event.lost) {
    discard(event.sequence);
    emit(RxEvent::Kind::kLost, event.sequence, arrival, {}, node);
    return;
  }
  if (leads_ > 1) {
    const auto ready = ready_.find(event.sequence);
    if (ready != ready_.end()) {
      auto frames = std::move(ready->second);
      ready_.erase(ready);
      emit(RxEvent::Kind::kWindow, event.sequence, arrival,
           std::move(frames), node);
      return;
    }
  }
  if (!event.frame.empty() && core::Packet::parse_into(event.frame, packet_) &&
      packet_.kind == core::PacketKind::kProfile) {
    std::vector<std::vector<std::uint8_t>> frames;
    frames.push_back(std::move(event.frame));
    emit(RxEvent::Kind::kProfile, event.sequence, arrival, std::move(frames),
         node);
    ++profile_slots_;
    return;
  }
  std::vector<std::vector<std::uint8_t>> frames;
  if (!event.frame.empty()) {
    frames.push_back(std::move(event.frame));
  }
  emit(RxEvent::Kind::kWindow, event.sequence, arrival, std::move(frames),
       node);
}

void ReceiverReplica::emit(RxEvent::Kind kind, std::uint16_t sequence,
                           std::int64_t arrival,
                           std::vector<std::vector<std::uint8_t>> frames,
                           NodeInput& node) {
  RxEvent event;
  event.kind = kind;
  event.slot = static_cast<std::uint16_t>(sequence - profile_slots_);
  event.released_by = arrival;
  event.frames = std::move(frames);
  node.events.push_back(std::move(event));
}

void ReceiverReplica::finish(NodeInput& node) {
  out_.events.clear();
  out_.feedback.clear();
  arq_.finish(ticks_, out_);
  node.feedback.insert(node.feedback.end(), out_.feedback.begin(),
                       out_.feedback.end());
  for (auto& event : out_.events) {
    handle(event, -1, node);
  }
  while (!assembling_.empty() || !ready_.empty()) {
    const std::uint16_t sequence = assembling_.empty()
                                       ? ready_.begin()->first
                                       : assembling_.begin()->first;
    discard(sequence);
    if (released_[sequence]) {
      ++node.stale_concealments;
    } else {
      emit(RxEvent::Kind::kLost, sequence, -1, {}, node);
    }
  }
}

Inputs synthesise(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  inputs.spec = spec;
  const std::size_t leads = spec.leads;
  const std::size_t ticks = spec.windows + 1;

  // Stream profiles: one per CR when shared — a deployment's fixed
  // profiles, the same for every run seed — else one per node, each with
  // its own seeded sensing seed.
  const std::size_t profile_count =
      spec.shared_profiles ? spec.crs.size() : spec.nodes;
  std::vector<core::StreamProfile> profiles;
  for (std::size_t p = 0; p < profile_count; ++p) {
    core::StreamProfile profile =
        core::profile_for_cr(spec.crs[p % spec.crs.size()]);
    profile.seed =
        mix_seed(spec.shared_profiles ? kCorpusSeed : seed, 0x100 + p);
    profile.keyframe_interval = spec.keyframe_interval;
    profiles.push_back(profile.with_leads(leads));
  }
  const std::size_t n = profiles.front().window;
  inputs.window = n;

  // ECG source: every node draws from the fixed corpus.
  ecg::DatabaseConfig db_config;
  db_config.record_count = kCorpusRecords;
  db_config.duration_s =
      2.0 * static_cast<double>(ticks + kSpareWindows) + 1.0;
  db_config.seed = kCorpusSeed;
  db_config.leads = std::max<std::size_t>(2, leads);
  const ecg::SyntheticDatabase db(db_config);

  util::Rng rng(mix_seed(seed, 2));
  const auto shuffled = [&rng](std::size_t count) {
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = count; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    return order;
  };
  // Node i has CR i % groups. Within each CR group, records cycle through
  // a seeded permutation, so every run pairs each CR with every record
  // equally often.
  const std::size_t groups = spec.crs.size();
  const std::vector<std::size_t> record_rank =
      shuffled((spec.nodes + groups - 1) / groups);

  const bool feedback_path = spec.open_loop;
  inputs.nodes.resize(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    NodeInput& node = inputs.nodes[i];
    node.profile = profiles[spec.shared_profiles ? i % profile_count : i];
    // Sends are staggered evenly across the 2-s period in node order, so
    // the arrival pattern each gateway shard sees is the same for every
    // seed; the seed only moves the data.
    node.phase_s = 2.0 * static_cast<double>(i) /
                   static_cast<double>(spec.nodes);
    // Node i's first periodic keyframe falls in tick 1 + i % interval:
    // each tick's cold solves come from nodes spread evenly over the 2-s
    // period and over the CRs, and every seed sees the same pattern.
    const std::size_t keyframe_phase =
        spec.stagger_keyframes ? 1 + i % spec.keyframe_interval : 0;
    const std::size_t record =
        (record_rank[i / groups] + (i % groups) * kCorpusRecords / groups) %
        kCorpusRecords;
    const std::size_t offset = rng.uniform_index(kSpareWindows + 1);

    node.source.resize(ticks * leads * n);
    for (std::size_t l = 0; l < leads; ++l) {
      const auto& samples = db.mote_lead(record, l).samples;
      if (samples.size() < (offset + ticks) * n) {
        throw std::runtime_error("synthetic record too short");
      }
      for (std::size_t t = 0; t < ticks; ++t) {
        std::copy_n(samples.begin() +
                        static_cast<std::ptrdiff_t>((offset + t) * n),
                    n,
                    node.source.begin() +
                        static_cast<std::ptrdiff_t>((t * leads + l) * n));
      }
    }

    wbsn::StreamSessionConfig session_config;
    session_config.link = spec.link;
    session_config.link.seed = mix_seed(seed, 0x10000 + i);
    // The scheduled drop: the first copy of one lead frame of one measured
    // window (wire sequence = window + 1, after the profile announcement).
    std::optional<std::pair<std::uint16_t, std::uint8_t>> drop;
    if (spec.scheduled_drop && spec.windows >= 2) {
      const std::size_t window = 1 + rng.uniform_index(spec.windows - 1);
      drop.emplace(static_cast<std::uint16_t>(window + 1),
                   static_cast<std::uint8_t>(rng.uniform_index(leads)));
    }
    session_config.arq = spec.arq;
    wbsn::StreamSession session(node.profile, session_config);
    ReceiverReplica receiver(spec.arq, leads);

    std::vector<std::vector<std::uint8_t>> delivered;
    const wbsn::StreamSession::FrameSink sink =
        [&delivered, &drop](std::vector<std::uint8_t> frame) {
          if (drop && frame.size() >= core::Packet::kHeaderBytes &&
              ((frame[0] << 8) | frame[1]) == drop->first &&
              ((frame[2] >> core::Packet::kLeadShift) &
               core::Packet::kLeadMask) == drop->second) {
            drop.reset();
            return;
          }
          delivered.push_back(std::move(frame));
        };
    // One tick's frames go to the receiver in link order. The sensor
    // answers feedback as soon as it arrives, so retransmissions a NACK
    // triggers are sent in the same tick, right after the frames that
    // exposed the gap.
    const auto receive = [&](std::uint32_t tick) {
      while (!delivered.empty()) {
        std::vector<std::vector<std::uint8_t>> batch;
        batch.swap(delivered);
        bool answered = false;
        for (auto& frame : batch) {
          const auto arrival =
              static_cast<std::int64_t>(node.arrivals.size());
          node.arrivals.push_back({tick, frame});
          const auto& feedback =
              receiver.on_frame(std::move(frame), arrival, node);
          if (feedback_path && !feedback.empty()) {
            session.on_feedback(feedback);
            answered = true;
          }
        }
        if (answered) {
          session.service_feedback(sink);
        }
      }
    };
    for (std::size_t t = 0; t < ticks; ++t) {
      if (t == keyframe_phase && t > 0) {
        session.node().encoder().request_keyframe();
      }
      const std::span<const std::int16_t> samples(
          node.source.data() + t * leads * n, leads * n);
      if (leads > 1) {
        session.send_group_window(samples, sink);
      } else {
        session.send_window(samples, sink);
      }
      receive(static_cast<std::uint32_t>(t));
    }
    receiver.finish(node);

    node.frames_sent = session.link().stats().frames_sent;
    node.wire_bits = session.link().stats().wire_bits;
    node.retransmissions = session.node().arq().stats().retransmissions;
    node.windows_encoded = session.node().stats().windows_encoded;
    node.encode_seconds = session.node().stats().encode_seconds_total;
  }
  return inputs;
}

}  // namespace perfbench
