#include "drive.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "csecg/linalg/backend.hpp"

namespace perfbench {

namespace {

constexpr double kPeriodS = 2.0;
/// First contact keeps at most this many warm-up windows in flight — far
/// below any admission threshold, so no shard escalates or sheds.
constexpr std::size_t kWarmupInFlight = 4;
/// Longest wait for outstanding deliveries before a run is declared hung.
constexpr double kDrainTimeoutS = 60.0;
/// Sends between resident-memory samples.
constexpr std::size_t kRssSampleEvery = 64;

std::uint16_t wire_sequence(const std::vector<std::uint8_t>& frame) {
  return frame.size() < 2 ? 0
                          : static_cast<std::uint16_t>((frame[0] << 8) |
                                                       frame[1]);
}

/// The sink both loops hand the system: copies each delivery into the
/// node's preallocated slot and stamps its arrival time.
class Collector {
 public:
  Collector(const Inputs& inputs, std::vector<NodeRecord>& records)
      : records_(records),
        leads_(inputs.spec.leads),
        window_(inputs.window) {}

  void reset() {
    for (auto& record : records_) {
      std::fill(record.windows.begin(), record.windows.end(),
                WindowOutcome{});
      record.feedback.clear();
    }
    delivered_.store(0, std::memory_order_relaxed);
    stale_.store(0, std::memory_order_relaxed);
    epoch_ = Clock::now();
  }

  void set_epoch(Clock::time_point epoch) { epoch_ = epoch; }
  /// Set around finish(): a concealment of an already-delivered window
  /// is then counted as stale instead of flagged.
  void set_finishing(bool finishing) { finishing_.store(finishing); }
  std::size_t stale() const { return stale_.load(); }

  void deliver(const wbsn::FleetWindow& window) {
    const auto now = Clock::now();
    if (window.node_id >= records_.size()) {
      flag("delivery from an unknown node");
      return;
    }
    NodeRecord& record = records_[window.node_id];
    if (window.sequence >= record.windows.size() || window.lead >= leads_ ||
        window.samples.size() != window_) {
      flag("delivery outside the node's window slots");
      return;
    }
    WindowOutcome& out = record.windows[window.sequence];
    if (out.delivered && finishing_.load() && window.concealed) {
      if (window.lead == 0) {
        stale_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    std::copy(window.samples.begin(), window.samples.end(),
              record.samples.begin() +
                  static_cast<std::ptrdiff_t>(
                      (window.sequence * leads_ + window.lead) * window_));
    if (window.lead == 0) {
      out.concealed = window.concealed;
      out.decode_s = window.decode_seconds;
      out.iterations = window.iterations;
    }
    if (out.delivered || ++out.leads_seen > leads_) {
      flag("window delivered twice");
      return;
    }
    if (out.leads_seen == leads_) {
      out.delivered = true;
      out.delivery_s = seconds_between(epoch_, now);
      delivered_.fetch_add(1, std::memory_order_release);
    }
  }

  void feedback(std::uint32_t node,
                std::span<const wbsn::FeedbackMessage> messages) {
    if (node >= records_.size()) {
      flag("feedback for an unknown node");
      return;
    }
    auto& log = records_[node].feedback;
    log.insert(log.end(), messages.begin(), messages.end());
  }

  std::size_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  bool bad() const { return bad_.load() != nullptr; }
  const char* why_bad() const { return bad_.load(); }

 private:
  void flag(const char* why) {
    const char* none = nullptr;
    bad_.compare_exchange_strong(none, why);
  }

  std::vector<NodeRecord>& records_;
  std::size_t leads_;
  std::size_t window_;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> finishing_{false};
  std::atomic<std::size_t> delivered_{0};
  std::atomic<std::size_t> stale_{0};
  std::atomic<const char*> bad_{nullptr};
};

/// Per-node bookkeeping derived from the replica's events.
struct Plan {
  std::vector<std::size_t> first_measured;  ///< first arrival of tick >= 1
  std::vector<std::size_t> warm_windows;    ///< released by tick-0 frames
  std::size_t live_windows = 0;  ///< released before finish(), all ticks
};

Plan plan_of(const Inputs& inputs) {
  Plan plan;
  for (const NodeInput& node : inputs.nodes) {
    std::size_t first = 0;
    while (first < node.arrivals.size() && node.arrivals[first].tick == 0) {
      ++first;
    }
    std::size_t warm = 0;
    for (const RxEvent& event : node.events) {
      if (event.kind == RxEvent::Kind::kProfile || event.released_by < 0) {
        continue;
      }
      ++plan.live_windows;
      if (static_cast<std::size_t>(event.released_by) < first) {
        ++warm;
      }
    }
    plan.first_measured.push_back(first);
    plan.warm_windows.push_back(warm);
  }
  return plan;
}

struct Send {
  double at_s = 0.0;
  std::uint32_t node = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// The open-loop schedule: every node's tick >= 1 arrivals, batched per
/// tick and sent at the node's phase within each 2-s period.
std::vector<Send> open_loop_schedule(const Inputs& inputs, const Plan& plan) {
  std::vector<Send> sends;
  for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
    const NodeInput& node = inputs.nodes[i];
    std::size_t a = plan.first_measured[i];
    while (a < node.arrivals.size()) {
      Send send;
      send.node = static_cast<std::uint32_t>(i);
      send.first = a;
      const std::uint32_t tick = node.arrivals[a].tick;
      while (a < node.arrivals.size() && node.arrivals[a].tick == tick) {
        ++a;
      }
      send.last = a;
      send.at_s = due_s(node, tick);
      sends.push_back(send);
    }
  }
  std::sort(sends.begin(), sends.end(), [](const Send& a, const Send& b) {
    return a.at_s != b.at_s ? a.at_s < b.at_s : a.node < b.node;
  });
  return sends;
}

/// Closed-loop order: the uploader reads each recording in chunks of
/// decode_batch windows and cycles over the recordings, so a node's
/// frames arrive together and the workers drain them as full panels.
std::vector<std::pair<std::uint32_t, std::size_t>> closed_loop_order(
    const Inputs& inputs, const Plan& plan) {
  const std::size_t chunk = std::max<std::size_t>(1, inputs.spec.decode_batch);
  std::vector<std::pair<std::uint32_t, std::size_t>> order;
  std::vector<std::size_t> cursor = plan.first_measured;
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
      const auto& arrivals = inputs.nodes[i].arrivals;
      for (std::size_t k = 0; k < chunk && cursor[i] < arrivals.size(); ++k) {
        order.emplace_back(static_cast<std::uint32_t>(i), cursor[i]++);
      }
      more = more || cursor[i] < arrivals.size();
    }
  }
  return order;
}

wbsn::FleetConfig fleet_config(const WorkloadSpec& spec) {
  wbsn::FleetConfig config;
  config.workers = spec.workers_per_shard;
  config.queue_depth = spec.queue_depth;
  config.decode_batch = spec.decode_batch;
  config.backend = &linalg::native_backend();
  config.prior = spec.prior;
  config.arq = spec.arq;
  return config;
}

bool wait_delivered(const Collector& collector, std::size_t target) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainTimeoutS));
  while (collector.delivered() < target) {
    if (collector.bad() || Clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void sample_rss(double& peak) {
  HarnessScope harness;
  peak = std::max(peak, resident_mib());
}

/// The set-up and measured phase shared by both loops; \p System wraps
/// the entry points that differ.
template <typename System>
DriveResult run(const Inputs& inputs, std::vector<NodeRecord>& records,
                std::size_t setups, bool traced) {
  const WorkloadSpec& spec = inputs.spec;
  const Plan plan = plan_of(inputs);
  Collector collector(inputs, records);
  DriveResult result;
  result.gateway = spec.open_loop;
  double rss_peak = resident_mib();

  std::unique_ptr<System> system;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    if (system) {
      collector.set_finishing(true);
      system->finish(result);
      collector.set_finishing(false);
      system.reset();
      release_free_heap();
    }
    collector.reset();
    const double rss_before = resident_mib();
    const auto t0 = Clock::now();
    system = std::make_unique<System>(spec, collector);
    for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
      if (system->add(inputs.nodes[i].profile) != i) {
        throw std::runtime_error("node ids are not registration order");
      }
    }
    const auto t1 = Clock::now();
    if (rep == 0) {
      result.rss_per_node_kib = (resident_mib() - rss_before) * 1024.0 /
                                static_cast<double>(inputs.nodes.size());
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
      const auto& arrivals = inputs.nodes[i].arrivals;
      for (std::size_t a = 0; a < plan.first_measured[i]; ++a) {
        if (!system->send(static_cast<std::uint32_t>(i), arrivals[a].frame)) {
          ++result.refused;
        }
      }
      expected += plan.warm_windows[i];
      if (!wait_delivered(collector, expected > kWarmupInFlight
                                         ? expected - kWarmupInFlight
                                         : 0)) {
        break;
      }
    }
    if (!wait_delivered(collector, expected)) {
      throw std::runtime_error(
          std::string("warm-up deliveries never arrived: ") +
          (collector.bad() ? collector.why_bad() : "timed out"));
    }
    const auto t2 = Clock::now();
    result.setup_s.push_back(seconds_between(t0, t2));
    result.register_s.push_back(seconds_between(t0, t1));
    result.warmup_s.push_back(seconds_between(t1, t2));
    sample_rss(rss_peak);
  }

  // Measured phase. Everything the generator records is preallocated.
  std::size_t total_arrivals = 0;
  for (const NodeInput& node : inputs.nodes) {
    total_arrivals += node.arrivals.size();
  }
  result.late_ms.reserve(total_arrivals);
  result.ingest_us.reserve(total_arrivals);
  if (traced) {
    result.spans.reserve(total_arrivals);
  }
  const auto record_call = [&](std::uint32_t node, std::size_t a,
                               Clock::time_point epoch, Clock::time_point b,
                               Clock::time_point e, const char* name) {
    NodeRecord& record = records[node];
    record.offer_begin_s[a] = seconds_between(epoch, b);
    record.offer_end_s[a] = seconds_between(epoch, e);
    result.ingest_us.push_back(seconds_between(b, e) * 1e6);
    if (traced) {
      result.spans.push_back(
          {name, node, wire_sequence(inputs.nodes[node].arrivals[a].frame),
           record.offer_begin_s[a], record.offer_end_s[a]});
    }
  };

  const std::uint64_t allocations_before = allocations_counted();
  set_allocation_counting(traced);
  const double cpu0 = process_cpu_seconds();
  Clock::time_point epoch;
  if (spec.open_loop) {
    const std::vector<Send> sends = open_loop_schedule(inputs, plan);
    epoch = Clock::now() + std::chrono::milliseconds(50);
    collector.set_epoch(epoch);
    for (std::size_t k = 0; k < sends.size(); ++k) {
      const Send& send = sends[k];
      const auto target =
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(send.at_s));
      std::this_thread::sleep_until(target);
      result.late_ms.push_back(seconds_between(target, Clock::now()) * 1e3);
      const auto& arrivals = inputs.nodes[send.node].arrivals;
      for (std::size_t a = send.first; a < send.last; ++a) {
        const auto b = Clock::now();
        if (!system->send(send.node, arrivals[a].frame)) {
          ++result.refused;
        }
        const auto e = Clock::now();
        if (traced) {
          record_call(send.node, a, epoch, b, e, "gateway.offer");
        }
      }
      if (k % kRssSampleEvery == 0) {
        sample_rss(rss_peak);
      }
    }
  } else {
    const auto order = closed_loop_order(inputs, plan);
    epoch = Clock::now();
    collector.set_epoch(epoch);
    auto ready = epoch;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto [node, a] = order[k];
      const auto b = Clock::now();
      result.late_ms.push_back(seconds_between(ready, b) * 1e3);
      if (!system->send(node, inputs.nodes[node].arrivals[a].frame)) {
        ++result.refused;
      }
      ready = Clock::now();
      record_call(node, a, epoch, b, ready, "fleet.submit");
      if (k % kRssSampleEvery == 0) {
        sample_rss(rss_peak);
      }
    }
  }
  result.timed_out = !wait_delivered(collector, plan.live_windows);
  const double cpu1 = process_cpu_seconds();
  set_allocation_counting(false);
  result.allocations = allocations_counted() - allocations_before;
  result.cpu_s = cpu1 - cpu0;
  sample_rss(rss_peak);
  result.rss_peak_mib = rss_peak;

  // The measured phase ends with the last delivery before finish().
  double last_delivery = 0.0;
  for (const NodeRecord& record : records) {
    for (std::size_t w = 1; w < record.windows.size(); ++w) {
      if (record.windows[w].delivered) {
        last_delivery = std::max(last_delivery, record.windows[w].delivery_s);
      }
    }
  }
  result.wall_s = last_delivery;
  collector.set_finishing(true);
  system->finish(result);
  collector.set_finishing(false);
  result.stale_concealments = collector.stale();
  if (collector.bad()) {
    throw std::runtime_error(std::string("sink: ") + collector.why_bad());
  }
  return result;
}

/// GatewayService behind the open loop.
class GatewaySystem {
 public:
  GatewaySystem(const WorkloadSpec& spec, Collector& collector)
      : gateway_(
            [&spec] {
              wbsn::GatewayConfig config;
              config.shards = spec.shards;
              config.shard = fleet_config(spec);
              return config;
            }(),
            [&collector](const wbsn::FleetWindow& window) {
              collector.deliver(window);
            },
            [&collector](std::uint32_t node,
                         std::span<const wbsn::FeedbackMessage> messages) {
              collector.feedback(node, messages);
            }) {}

  std::size_t add(const core::StreamProfile& profile) {
    return gateway_.register_node(profile);
  }
  bool send(std::uint32_t node, const std::vector<std::uint8_t>& frame) {
    return gateway_.offer(node, frame) == wbsn::OfferOutcome::kAdmitted;
  }
  void finish(DriveResult& result) {
    result.gateway_report = gateway_.finish();
    result.fleet_report = wbsn::FleetReport{};
  }

 private:
  wbsn::GatewayService gateway_;
};

/// FleetCoordinator behind the closed loop: submit() blocks while
/// the bounded queue is full.
class FleetSystem {
 public:
  FleetSystem(const WorkloadSpec& spec, Collector& collector)
      : fleet_(fleet_config(spec), [&collector](const wbsn::FleetWindow& w) {
          collector.deliver(w);
        }) {}

  std::size_t add(const core::StreamProfile& profile) {
    return fleet_.add_node(profile);
  }
  bool send(std::uint32_t node, const std::vector<std::uint8_t>& frame) {
    std::vector<std::uint8_t> copy;
    {
      HarnessScope harness;  // the uploader's read buffer, not the system's
      copy = frame;
    }
    return fleet_.submit(node, std::move(copy));
  }
  void finish(DriveResult& result) {
    result.fleet_report = fleet_.finish();
    result.gateway_report = wbsn::GatewayReport{};
  }

 private:
  wbsn::FleetCoordinator fleet_;
};

}  // namespace

double due_s(const NodeInput& node, std::size_t slot) {
  return node.phase_s + kPeriodS * static_cast<double>(slot - 1);
}

std::vector<NodeRecord> allocate_records(const Inputs& inputs) {
  const std::size_t slots = inputs.spec.windows + 1;
  std::vector<NodeRecord> records(inputs.nodes.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    NodeRecord& record = records[i];
    record.windows.assign(slots, WindowOutcome{});
    record.samples.assign(slots * inputs.spec.leads * inputs.window, 0.0f);
    record.feedback.reserve(inputs.nodes[i].feedback.size() + 64);
    record.offer_begin_s.assign(inputs.nodes[i].arrivals.size(), 0.0);
    record.offer_end_s.assign(inputs.nodes[i].arrivals.size(), 0.0);
  }
  return records;
}

DriveResult drive(const Inputs& inputs, std::vector<NodeRecord>& records,
                  std::size_t setups, bool traced) {
  return inputs.spec.open_loop
             ? run<GatewaySystem>(inputs, records, setups, traced)
             : run<FleetSystem>(inputs, records, setups, traced);
}

}  // namespace perfbench
