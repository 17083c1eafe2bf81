// perfbench — the repository benchmark. Drives the CS-ECG gateway stack
// from outside, through its public entry points, on one named workload
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// ledger) as one JSON object on the last line of stdout.
//
//   perfbench --workload ward|holter|leads3 --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR] [--nodes N] [--windows W]
//             [--setups K]
//
// The work a run does is a pure function of (workload, seed, seconds):
// windows decoded, concealed and shed, frames retransmitted, FISTA
// iterations, wire bits and every output bit. Only time varies. A run
// that breaks a determinism or correctness gate exits non-zero and
// prints no metrics.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "csecg/ecg/metrics.hpp"
#include "csecg/platform/cortex_a8.hpp"
#include "csecg/platform/energy.hpp"
#include "csecg/util/rng.hpp"
#include "drive.hpp"
#include "inputs.hpp"
#include "probe.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

/// A window delivered later than this after its due time missed the
/// paper's 6-s ring buffer.
constexpr double kLateLimitS = 6.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  std::size_t nodes = 0;
  std::size_t windows = 0;
  std::size_t setups = 5;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--nodes") {
      args.nodes = std::stoul(value);
    } else if (key == "--windows") {
      args.windows = std::stoul(value);
    } else if (key == "--setups") {
      args.setups = std::max<std::size_t>(1, std::stoul(value));
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

/// The fixed, seed-chosen subset of nodes replayed in every run.
std::vector<std::size_t> verify_subset(const WorkloadSpec& spec,
                                       std::uint64_t seed) {
  std::vector<std::size_t> order(spec.nodes);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(mix_seed(seed, 3));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  order.resize(spec.verify_nodes);
  std::sort(order.begin(), order.end());
  return order;
}

/// Per measured window: the due time it is timed from, and the arrival
/// whose processing released it.
struct Due {
  double due_s = 0.0;
  std::int64_t released_by = -1;
};

std::vector<std::vector<Due>> due_table(const Inputs& inputs,
                                        const std::vector<NodeRecord>& records) {
  std::vector<std::vector<Due>> table(inputs.nodes.size());
  for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
    const NodeInput& node = inputs.nodes[i];
    table[i].assign(inputs.spec.windows + 1, Due{});
    for (const RxEvent& event : node.events) {
      if (event.kind != RxEvent::Kind::kProfile &&
          event.slot < table[i].size()) {
        table[i][event.slot].released_by = event.released_by;
      }
    }
    for (std::size_t w = 1; w < table[i].size(); ++w) {
      Due& due = table[i][w];
      if (inputs.spec.open_loop) {
        due.due_s = due_s(node, w);
      } else if (due.released_by >= 0) {
        // Closed loop: a recording window is due when the uploader
        // starts handing over the frame that completes it.
        due.due_s =
            records[i].offer_begin_s[static_cast<std::size_t>(due.released_by)];
      }
    }
  }
  return table;
}

/// The deterministic ledger of one run.
struct Counts {
  std::size_t due = 0;
  std::size_t decoded = 0;    ///< all slots, warm-up included
  std::size_t concealed = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t retransmitted = 0;
  std::size_t iterations = 0;
  std::size_t wire_bits = 0;
  std::size_t stale = 0;  ///< finish-time re-concealments (see inputs.hpp)
  std::uint64_t crc = fnv1a(nullptr, 0);  ///< fold over delivered windows
};

Counts count(const Inputs& inputs, const std::vector<NodeRecord>& records,
             const DriveResult& run) {
  Counts c;
  const std::size_t width = inputs.spec.leads * inputs.window;
  for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
    const NodeRecord& record = records[i];
    c.due += inputs.spec.windows;
    c.retransmitted += inputs.nodes[i].retransmissions;
    c.wire_bits += inputs.nodes[i].wire_bits;
    c.stale += inputs.nodes[i].stale_concealments;
    for (std::size_t w = 0; w < record.windows.size(); ++w) {
      const WindowOutcome& out = record.windows[w];
      if (!out.delivered) {
        continue;
      }
      if (out.concealed) {
        ++c.concealed;
      } else {
        ++c.decoded;
        c.iterations += out.iterations;
      }
      c.crc = fnv1a(&out.concealed, 1, c.crc);
      c.crc = fnv1a(record.samples.data() + w * width, width * sizeof(float),
                    c.crc);
    }
  }
  if (run.gateway) {
    const auto& g = run.gateway_report;
    c.shed = g.shed_dropped + g.shed_queue_full + g.windows_shed_concealed;
    c.rejected = g.frames_rejected;
  } else {
    c.shed = run.fleet_report.windows_shed_concealed;
    c.rejected = run.fleet_report.frames_rejected;
  }
  return c;
}

/// Checks every ledger identity; returns the broken ones.
std::vector<std::string> gate(const Inputs& inputs,
                              const std::vector<NodeRecord>& records,
                              const DriveResult& run, const Counts& counts,
                              const ReplayCheck& check) {
  std::vector<std::string> failures;
  const auto require = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };
  std::size_t arrivals = 0;
  std::size_t expected_windows = 0;
  bool feedback_equal = true;
  for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
    const NodeInput& node = inputs.nodes[i];
    arrivals += node.arrivals.size();
    for (const RxEvent& event : node.events) {
      if (event.kind != RxEvent::Kind::kProfile) {
        ++expected_windows;
        require(records[i].windows[event.slot].delivered,
                "node " + std::to_string(i) + " slot " +
                    std::to_string(event.slot) + " never delivered");
      }
    }
    if (inputs.spec.open_loop) {
      const auto& got = records[i].feedback;
      const auto& want = node.feedback;
      feedback_equal =
          feedback_equal && got.size() == want.size() &&
          std::equal(got.begin(), got.end(), want.begin(),
                     [](const wbsn::FeedbackMessage& a,
                        const wbsn::FeedbackMessage& b) {
                       return a.kind == b.kind && a.sequence == b.sequence;
                     });
    }
  }
  require(!run.timed_out, "deliveries stopped before the schedule ended");
  require(run.refused == 0, "offers refused: " + std::to_string(run.refused));
  require(counts.shed == 0, "windows shed: " + std::to_string(counts.shed));
  require(counts.decoded + counts.concealed == expected_windows,
          "sink saw " + std::to_string(counts.decoded + counts.concealed) +
              " windows, replica expected " +
              std::to_string(expected_windows));
  require(feedback_equal,
          "gateway feedback differs from the sender's replica");
  require(run.stale_concealments == counts.stale,
          "finish() re-concealed " + std::to_string(run.stale_concealments) +
              " delivered windows, replica predicted " +
              std::to_string(counts.stale));
  if (run.gateway) {
    const auto& g = run.gateway_report;
    require(g.accounts_exactly(), "gateway offer ledger does not balance");
    require(g.offered == arrivals && g.admitted == arrivals,
            "gateway offered/admitted " + std::to_string(g.offered) + "/" +
                std::to_string(g.admitted) + ", sent " +
                std::to_string(arrivals));
    require(g.tier_escalations == 0, "a shard escalated its degrade tier");
    require(g.windows_reconstructed == counts.decoded &&
                g.windows_concealed == counts.concealed + counts.stale,
            "gateway window ledger differs from the sink");
  } else {
    const auto& f = run.fleet_report;
    require(f.frames_submitted == arrivals,
            "fleet submitted " + std::to_string(f.frames_submitted) +
                ", sent " + std::to_string(arrivals));
    require(f.windows_reconstructed == counts.decoded &&
                f.windows_concealed == counts.concealed + counts.stale,
            "fleet window ledger differs from the sink");
  }
  require(check.mismatches == 0,
          std::to_string(check.mismatches) + " replay mismatches (first: " +
              check.first_mismatch + ")");
  return failures;
}

/// Measured-window statistics shared by the end-to-end and per-layer
/// metrics.
struct WindowStats {
  std::size_t due = 0;
  std::size_t decoded = 0;
  std::size_t concealed = 0;
  std::size_t failed = 0;
  std::vector<double> e2e_ms;
  std::vector<double> decode_ms;
  std::vector<double> queue_wait_ms;
  double decode_s_total = 0.0;
  double prd_sum = 0.0;
  std::size_t prd_count = 0;
};

WindowStats window_stats(const Inputs& inputs,
                         const std::vector<NodeRecord>& records) {
  WindowStats s;
  const auto dues = due_table(inputs, records);
  const std::size_t n = inputs.window;
  const std::size_t leads = inputs.spec.leads;
  std::vector<double> source(n);
  std::vector<double> output(n);
  for (std::size_t i = 0; i < inputs.nodes.size(); ++i) {
    const NodeRecord& record = records[i];
    for (std::size_t w = 1; w < record.windows.size(); ++w) {
      ++s.due;
      const WindowOutcome& out = record.windows[w];
      if (out.delivered && out.concealed) {
        ++s.concealed;
      }
      if (!out.delivered || out.concealed) {
        ++s.failed;
        continue;
      }
      const Due& due = dues[i][w];
      const double latency_s = out.delivery_s - due.due_s;
      if (latency_s > kLateLimitS) {
        ++s.failed;
      }
      ++s.decoded;
      s.e2e_ms.push_back(latency_s * 1e3);
      s.decode_ms.push_back(out.decode_s * 1e3);
      s.decode_s_total += out.decode_s;
      if (due.released_by >= 0) {
        s.queue_wait_ms.push_back(
            (out.delivery_s -
             record.offer_end_s[static_cast<std::size_t>(due.released_by)] -
             out.decode_s) *
            1e3);
      }
      for (std::size_t l = 0; l < leads; ++l) {
        const std::size_t base = (w * leads + l) * n;
        for (std::size_t k = 0; k < n; ++k) {
          source[k] = inputs.nodes[i].source[base + k];
          output[k] = record.samples[base + k];
        }
        s.prd_sum += ecg::prd(source, output);
        ++s.prd_count;
      }
    }
  }
  return s;
}

/// Mean node lifetime from the §V power model: radio airtime of the wire
/// bits per window plus modelled MSP430 encode time.
double node_lifetime_h(const Inputs& inputs) {
  const platform::NodePowerModel power;
  const platform::BatteryModel battery;
  double sum = 0.0;
  for (const NodeInput& node : inputs.nodes) {
    const double windows = static_cast<double>(node.windows_encoded);
    const auto bits = static_cast<std::size_t>(
        std::lround(static_cast<double>(node.wire_bits) / windows));
    sum += battery.lifetime_hours(
        power.node_average_power(bits, node.encode_seconds / windows));
  }
  return sum / static_cast<double>(inputs.nodes.size());
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(10) << value;
  return out.str();
}

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + metric.name + " is not finite");
    }
  }
  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Self time per span name: duration minus the part of it covered by
/// spans nested inside it. \p spans must come from one thread.
struct SelfTime {
  std::size_t samples = 0;
  double total_ms = 0.0;
};

std::map<std::string, SelfTime> self_times(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.begin_s != b.begin_s ? a.begin_s < b.begin_s
                                  : a.end_s > b.end_s;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    while (!stack.empty() && spans[stack.back()].end_s <= spans[k].begin_s) {
      stack.pop_back();
    }
    if (!stack.empty() && spans[k].end_s <= spans[stack.back()].end_s) {
      child[stack.back()] += spans[k].end_s - spans[k].begin_s;
    }
    stack.push_back(k);
  }
  std::map<std::string, SelfTime> table;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    SelfTime& row = table[spans[k].name];
    ++row.samples;
    row.total_ms += (spans[k].end_s - spans[k].begin_s - child[k]) * 1e3;
  }
  return table;
}

void write_spans(const std::string& path, const std::vector<Span>& workload,
                 const std::vector<Span>& replayed) {
  std::ofstream out(path);
  const auto emit = [&out](const Span& span, const char* part) {
    out << "{\"part\":\"" << part << "\",\"name\":\"" << span.name
        << "\",\"node\":" << span.node << ",\"seq\":" << span.sequence
        << ",\"begin_us\":" << json_number(span.begin_s * 1e6)
        << ",\"end_us\":" << json_number(span.end_s * 1e6) << "}\n";
  };
  for (const Span& span : workload) {
    emit(span, "workload");
  }
  for (const Span& span : replayed) {
    emit(span, "replay");
  }
}

/// The workload-side spans of a traced run: each offer/submit, plus for
/// every delivered window its decode interval and its delivery.
std::vector<Span> workload_spans(const std::vector<NodeRecord>& records,
                                 const DriveResult& run) {
  std::vector<Span> spans = run.spans;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto node = static_cast<std::uint32_t>(i);
    for (std::size_t w = 1; w < records[i].windows.size(); ++w) {
      const WindowOutcome& out = records[i].windows[w];
      if (!out.delivered) {
        continue;
      }
      const auto slot = static_cast<std::uint32_t>(w);
      if (!out.concealed) {
        spans.push_back({"fleet.decode", node, slot,
                         out.delivery_s - out.decode_s, out.delivery_s});
      }
      spans.push_back(
          {"sink.deliver", node, slot, out.delivery_s, out.delivery_s});
    }
  }
  return spans;
}

int run(const Args& args) {
  const WorkloadSpec spec =
      make_spec(args.workload, args.seconds, args.nodes, args.windows);

  const auto synth_begin = Clock::now();
  const Inputs inputs = synthesise(spec, args.seed);
  const double inputs_s = seconds_between(synth_begin, Clock::now());
  std::vector<NodeRecord> records = allocate_records(inputs);
  release_free_heap();
  const double rss_base = resident_mib();

  const DriveResult plain = drive(inputs, records, args.setups, false);
  const Counts counts = count(inputs, records, plain);
  // The traced run replays every node against its own outputs and checks
  // that their hash fold equals this run's, so the subset replay here is
  // only needed when not tracing.
  const std::vector<std::size_t> subset = verify_subset(spec, args.seed);
  const ReplayCheck check = args.trace
                                ? ReplayCheck{}
                                : replay(inputs, records, subset, nullptr);
  std::vector<std::string> failures =
      gate(inputs, records, plain, counts, check);
  const WindowStats stats = window_stats(inputs, records);

  std::cout << "workload " << spec.name << " seed " << args.seed << ": "
            << spec.nodes << " nodes x " << spec.leads << " lead(s), "
            << spec.windows << " measured windows each, "
            << (spec.open_loop ? "open loop (GatewayService)"
                               : "closed loop (FleetCoordinator)")
            << "\n";
  std::cout << "counts: due=" << counts.due << " decoded=" << counts.decoded
            << " concealed=" << counts.concealed << " shed=" << counts.shed
            << " rejected=" << counts.rejected
            << " retransmitted=" << counts.retransmitted
            << " iterations=" << counts.iterations
            << " wire_bits=" << counts.wire_bits << " stale=" << counts.stale
            << " crc=" << std::hex
            << counts.crc << std::dec << "\n";
  // How many ticks each measured window waited for its frames: 0 = it
  // arrived complete and in order; more = it (or an earlier window it
  // queues behind) waited for an ARQ retransmission.
  std::map<std::int64_t, std::size_t> wait_ticks;
  for (const NodeInput& node : inputs.nodes) {
    for (const RxEvent& event : node.events) {
      if (event.kind != RxEvent::Kind::kProfile && event.slot >= 1) {
        const std::int64_t wait =
            event.released_by < 0
                ? -1
                : static_cast<std::int64_t>(
                      node.arrivals[static_cast<std::size_t>(
                                        event.released_by)]
                          .tick) -
                      static_cast<std::int64_t>(event.slot);
        ++wait_ticks[wait];
      }
    }
  }
  std::cout << "arq wait (ticks:windows, -1 = released at finish):";
  for (const auto& [ticks, windows] : wait_ticks) {
    std::cout << " " << ticks << ":" << windows;
  }
  std::cout << "\n";
  if (!args.trace) {
    std::cout << "replay: " << check.windows << " windows of "
              << subset.size() << " nodes compared bit for bit, "
              << check.mismatches << " mismatches\n";
  }

  const double prd_pct =
      stats.prd_count == 0 ? 0.0
                           : stats.prd_sum / static_cast<double>(stats.prd_count);
  const double lifetime_h = node_lifetime_h(inputs);
  std::cout << std::setprecision(6)
            << "quality: prd_pct=" << prd_pct << " failed=" << stats.failed
            << " node_lifetime_h=" << lifetime_h << "\n";

  if (!args.trace) {
    if (!failures.empty()) {
      for (const auto& failure : failures) {
        std::cerr << "GATE FAILED: " << failure << "\n";
      }
      return 3;
    }
    const std::vector<Metric> metrics = {
        {"windows_per_s",
         static_cast<double>(stats.decoded) / plain.wall_s, "1/s"},
        {"windows_per_core_s",
         static_cast<double>(stats.decoded) / plain.cpu_s, "1/s"},
        {"e2e_p50_ms", quantile(stats.e2e_ms, 0.50), "ms"},
        {"e2e_p99_ms", quantile(stats.e2e_ms, 0.99), "ms"},
        {"prd_pct", prd_pct, "%"},
        {"delivered_pct",
         100.0 * static_cast<double>(stats.due - stats.failed) /
             static_cast<double>(stats.due),
         "%"},
        {"node_lifetime_h", lifetime_h, "h"},
        {"setup_s", median(plain.setup_s), "s"},
        {"rss_peak_mb", plain.rss_peak_mib - rss_base, "MiB"},
    };
    std::cout << "e2e latency samples: " << stats.e2e_ms.size()
              << " (p99 has " << stats.e2e_ms.size() / 100
              << " beyond it); setup runs: " << plain.setup_s.size()
              << "; inputs " << inputs_s << " s outside setup_s\n";
    print_result(stats.due, stats.failed, metrics);
    return 0;
  }

  // Traced run: the same work again with harness spans and allocation
  // counting, then the per-layer replay of every node.
  const DriveResult traced = drive(inputs, records, 1, true);
  const Counts traced_counts = count(inputs, records, traced);
  std::vector<std::size_t> all(spec.nodes);
  std::iota(all.begin(), all.end(), 0);
  LayerSamples layers;
  const ReplayCheck full = replay(inputs, records, all, &layers);
  for (auto& failure : gate(inputs, records, traced, traced_counts, full)) {
    failures.push_back("traced run: " + failure);
  }
  if (traced_counts.crc != counts.crc ||
      traced_counts.iterations != counts.iterations ||
      traced_counts.decoded != counts.decoded) {
    failures.push_back("traced run did different work than the plain run");
  }
  if (!failures.empty()) {
    for (const auto& failure : failures) {
      std::cerr << "GATE FAILED: " << failure << "\n";
    }
    return 3;
  }
  const WindowStats tstats = window_stats(inputs, records);
  const std::vector<std::size_t> priced(
      subset.begin(),
      subset.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(2, subset.size())));
  const double a8_mcycles = a8_mcycles_per_window(inputs, priced);

  std::size_t frames_sent = 0;
  std::size_t windows_encoded = 0;
  double encode_s = 0.0;
  for (const NodeInput& node : inputs.nodes) {
    frames_sent += node.frames_sent;
    windows_encoded += node.windows_encoded;
    encode_s += node.encode_seconds;
  }
  const double plain_cpu_per_window =
      plain.cpu_s / static_cast<double>(stats.decoded);
  const double traced_cpu_per_window =
      traced.cpu_s / static_cast<double>(tstats.decoded);
  const double reconstruct_ms_total = std::accumulate(
      layers.reconstruct_ms.begin(), layers.reconstruct_ms.end(), 0.0);
  const double iterations_total =
      std::accumulate(layers.iterations.begin(), layers.iterations.end(), 0.0);
  const double workers = static_cast<double>(spec.workers());
  const std::vector<Metric> metrics = {
      {"gateway.offer_us_p50", quantile(traced.ingest_us, 0.50), "us"},
      {"gateway.offer_us_p99", quantile(traced.ingest_us, 0.99), "us"},
      {"gateway.rss_per_node_kb", plain.rss_per_node_kib, "KiB"},
      {"fleet.submit_wait_ms", mean(traced.ingest_us) / 1e3, "ms"},
      {"fleet.queue_wait_ms_p50", quantile(tstats.queue_wait_ms, 0.50), "ms"},
      {"fleet.queue_wait_ms_p99", quantile(tstats.queue_wait_ms, 0.99), "ms"},
      {"fleet.decode_ms_p50", quantile(tstats.decode_ms, 0.50), "ms"},
      {"fleet.decode_ms_p99", quantile(tstats.decode_ms, 0.99), "ms"},
      {"fleet.busy_pct",
       100.0 * tstats.decode_s_total / (workers * traced.wall_s), "%"},
      {"fleet.concealed_per_1k",
       1000.0 * static_cast<double>(tstats.concealed) /
           static_cast<double>(tstats.due),
       "count"},
      {"arq.retx_per_1k",
       1000.0 * static_cast<double>(counts.retransmitted) /
           static_cast<double>(frames_sent),
       "count"},
      {"link.wire_bytes_per_window",
       static_cast<double>(counts.wire_bits) / 8.0 /
           static_cast<double>(windows_encoded),
       "B"},
      {"packet.parse_us", mean(layers.parse_us), "us"},
      {"decoder.entropy_us", mean(layers.entropy_us), "us"},
      {"decoder.lambda_us", mean(layers.lambda_us), "us"},
      {"decoder.idwt_us", mean(layers.idwt_us), "us"},
      {"decoder.reconstruct_ms", mean(layers.reconstruct_ms), "ms"},
      {"solvers.iterations_mean", mean(layers.iterations), "count"},
      {"solvers.iterations_p99", quantile(layers.iterations, 0.99), "count"},
      {"solvers.warm_pct",
       100.0 * static_cast<double>(layers.warm_solves) /
           static_cast<double>(std::max<std::size_t>(1, layers.solves)),
       "%"},
      {"solvers.iter_us", reconstruct_ms_total * 1e3 / iterations_total,
       "us"},
      {"solvers.bookkeeping_pct", median(layers.bookkeeping_pct), "%"},
      {"linalg.phi_us", median(layers.phi_us), "us"},
      {"linalg.phit_us", median(layers.phit_us), "us"},
      {"linalg.shrink_us", median(layers.shrink_us), "us"},
      {"dsp.synthesis_us", median(layers.synthesis_us), "us"},
      {"dsp.analysis_us", median(layers.analysis_us), "us"},
      {"platform.msp430_ms_per_window",
       encode_s * 1e3 / static_cast<double>(windows_encoded), "ms"},
      {"platform.a8_mcycles_per_window", a8_mcycles, "Mcycles"},
      {"replay.windows_per_s",
       static_cast<double>(layers.decoded_windows) / layers.decode_path_s,
       "1/s"},
      {"heap.allocs_per_window",
       static_cast<double>(traced.allocations) /
           static_cast<double>(tstats.decoded),
       "count"},
      {"gen.late_ms_p50", quantile(plain.late_ms, 0.50), "ms"},
      {"gen.late_ms_p99", quantile(plain.late_ms, 0.99), "ms"},
      {"setup.inputs_s", inputs_s, "s"},
      {"setup.register_s", median(plain.register_s), "s"},
      {"setup.warmup_s", median(plain.warmup_s), "s"},
      {"trace.overhead_pct",
       100.0 * (traced_cpu_per_window / plain_cpu_per_window - 1.0), "%"},
  };

  // Self-time table with sample counts, and the span dump.
  const std::vector<Span> wspans = workload_spans(records, traced);
  std::cout << "\nself time per layer (traced run, " << spec.name << ")\n";
  std::cout << std::left << std::setw(26) << "span" << std::right
            << std::setw(10) << "samples" << std::setw(14) << "self ms"
            << std::setw(14) << "mean us" << "\n";
  const auto print_rows = [](const std::map<std::string, SelfTime>& table) {
    for (const auto& [name, row] : table) {
      std::cout << std::left << std::setw(26) << name << std::right
                << std::setw(10) << row.samples << std::setw(14)
                << std::fixed << std::setprecision(2) << row.total_ms
                << std::setw(14)
                << row.total_ms * 1e3 / static_cast<double>(row.samples)
                << std::defaultfloat << "\n";
    }
  };
  std::map<std::string, SelfTime> workload_table;
  for (const Span& span : wspans) {
    SelfTime& row = workload_table[span.name];
    ++row.samples;
    row.total_ms += (span.end_s - span.begin_s) * 1e3;
  }
  print_rows(workload_table);
  print_rows(self_times(layers.spans));
  std::cout << std::setprecision(4);
  std::cout << "replay: " << full.windows << " windows of " << all.size()
            << " nodes compared bit for bit, " << full.mismatches
            << " mismatches\n";
  std::cout << "per-layer sample counts: replayed windows "
            << layers.decoded_windows << ", solves " << layers.solves
            << ", kernel samples " << layers.phi_us.size()
            << ", e2e samples " << tstats.e2e_ms.size() << "\n";
  std::cout << "traced run e2e latency: p50 " << quantile(tstats.e2e_ms, 0.50)
            << " ms, p99 " << quantile(tstats.e2e_ms, 0.99)
            << " ms (untraced: p50 " << quantile(stats.e2e_ms, 0.50)
            << " ms, p99 " << quantile(stats.e2e_ms, 0.99) << " ms)\n";
  std::cout << "tracing overhead: "
            << (traced_cpu_per_window / plain_cpu_per_window - 1.0) * 100.0
            << " % CPU per decoded window (traced " << traced_cpu_per_window * 1e3
            << " ms vs plain " << plain_cpu_per_window * 1e3 << " ms)\n";
  std::cout << "cycle models (beside host time): Cortex-A8 "
            << a8_mcycles << " Mcycles per decoded window ("
            << a8_mcycles * 1e6 / platform::CortexA8Model{}.clock_hz * 1e3
            << " ms at 600 MHz) vs host reconstruct "
            << mean(layers.reconstruct_ms) << " ms; MSP430 encode "
            << encode_s * 1e3 / static_cast<double>(windows_encoded)
            << " ms per window\n";
  std::filesystem::create_directories(args.trace_dir);
  const std::string span_path = args.trace_dir + "/" + spec.name + "-seed" +
                                std::to_string(args.seed) + ".jsonl";
  write_spans(span_path, wspans, layers.spans);
  std::cout << "spans: " << wspans.size() + layers.spans.size() << " -> "
            << span_path << "\n";
  print_result(tstats.due, tstats.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
