// EXP-A11 — fleet-scale decode: the gateway multiplexes N sensor streams
// onto a fixed decode worker pool (wbsn::FleetCoordinator). Two claims
// are measured:
//
//  1. Allocation-free steady state: after warm-up, one decoded window
//     costs zero heap allocations on the reconstruction hot path
//     (decode_measurements_into + reconstruct_into through a
//     SolverWorkspace). Verified with a global operator-new counting
//     hook; the bench exits non-zero if a single allocation leaks in.
//  2. Re-profile warm-up is bounded: an in-band CR switch (kProfile
//     frame at a keyframe boundary) may re-warm the decoder's scratch
//     once, but the steady state after the switch must be allocation-free
//     again — the adaptive-CR controller moves profiles on live fleets.
//  3. Panels amortise: one native Decoder reconstructs the same windows
//     one at a time (reconstruct_into) and as panels of k = 4 and 8
//     (reconstruct_batch_into). Cold solves do identical work either
//     way, the three passes rotate their order over repeated trials, and
//     the gate reads the median per-window cost ratio, which must stay
//     below 1 at both widths.
//  4. Worker scaling: fleet decode throughput grows near-linearly with
//     the worker count until it saturates the host's cores. On a
//     single-core CI box every configuration collapses to 1x — the
//     speedup column is only meaningful up to the printed hardware
//     concurrency. Panel widths inside the fleet follow worker wake-up
//     timing, so the sweep's "cost vs b1" column is information only.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/alloc_probe.hpp"
#include "csecg/util/table.hpp"
#include "csecg/wbsn/fleet.hpp"

using csecg::util::g_allocations;
using csecg::util::g_count_allocations;

int main(int argc, char** argv) {
  using namespace csecg;
  std::cout << "EXP-A11: fleet decode — allocation-free hot path and "
               "worker scaling (CR 50)\n\n";

  const auto& db = bench::corpus();
  const auto& book = bench::codebook();
  core::DecoderConfig config;  // defaults are the CR = 50 operating point

  const std::size_t n = config.cs.window;
  const auto& record = db.mote(0);
  const std::size_t record_windows = record.samples.size() / n;

  bench::JsonReport json(
      "fleet_scaling",
      {"phase", "nodes", "workers", "windows", "wall_s", "windows_per_s",
       "speedup", "p95_ms", "queue_high_water", "allocs_per_window",
       "decode_batch", "per_window_us", "cost_vs_batch1"});

  // ---------------------------------------------------- phase 1: allocs --
  // One decoder, one workspace, packets parsed up front: exactly the
  // per-window work a fleet worker does in steady state, with the obs
  // session detached (attached sessions trade a few span/attribute
  // allocations for telemetry; the hot path itself must stay clean).
  std::size_t alloc_windows = 0;
  std::size_t allocations = 0;
  {
    core::Encoder encoder(config.cs, book);
    std::vector<core::Packet> packets;
    const std::size_t total =
        std::min<std::size_t>(record_windows, 48);
    packets.reserve(total);
    for (std::size_t w = 0; w < total; ++w) {
      packets.push_back(encoder.encode_window(std::span<const std::int16_t>(
          record.samples.data() + w * n, n)));
    }

    core::Decoder decoder(config, book);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    const std::size_t warmup = std::min<std::size_t>(packets.size(), 8);
    for (std::size_t w = 0; w < warmup; ++w) {
      if (decoder.decode_measurements_into(packets[w], y)) {
        decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                        workspace, window);
      }
    }
    g_allocations.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
    for (std::size_t w = warmup; w < packets.size(); ++w) {
      if (decoder.decode_measurements_into(packets[w], y)) {
        decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                        workspace, window);
        ++alloc_windows;
      }
    }
    g_count_allocations.store(false, std::memory_order_relaxed);
    allocations = g_allocations.load(std::memory_order_relaxed);
  }
  const double allocs_per_window =
      alloc_windows == 0 ? -1.0
                         : static_cast<double>(allocations) /
                               static_cast<double>(alloc_windows);
  std::cout << "steady-state decode allocations: " << allocations << " over "
            << alloc_windows << " windows ("
            << util::format_double(allocs_per_window, 3)
            << " per window) — "
            << (allocations == 0 ? "PASS" : "FAIL") << "\n\n";
  json.add_row({"alloc", "1", "1", std::to_string(alloc_windows), "-", "-",
                "-", "-", "-", util::format_double(allocs_per_window, 3),
                "1", "-", "-"});

  // ------------------------------------- phase 1a: batched-native allocs --
  // The same steady-state claim for the batched decode path on the
  // native wide-SIMD backend: reconstruct_batch_into sweeps 4 windows per
  // kernel invocation through fista_panel, and after one warm-up pass
  // the hot path must stay allocation-free too. The same decoder and
  // windows then time the batch-cost gate.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kPanelWindows = 40;  // a multiple of every width
  constexpr std::size_t kGateTrials = 9;
  constexpr std::array<std::size_t, 3> kGateWidths = {1, kBatch, 8};
  std::size_t batch_allocations = 0;
  std::array<double, kGateWidths.size()> gate_ratio{};
  std::array<double, kGateWidths.size()> gate_us{};
  {
    core::DecoderConfig native_config = config;
    native_config.backend = &linalg::native_backend();
    core::Encoder encoder(native_config.cs, book);
    core::Decoder decoder(native_config, book);
    const std::size_t m = native_config.cs.measurements;

    // kPanelWindows measurement rows, packed back to back.
    std::vector<std::int32_t> flat;
    flat.reserve(kPanelWindows * m);
    {
      std::vector<std::int32_t> y;
      for (std::size_t w = 0; flat.size() < kPanelWindows * m; ++w) {
        const auto packet =
            encoder.encode_window(std::span<const std::int16_t>(
                record.samples.data() + (w % record_windows) * n, n));
        if (decoder.decode_measurements_into(packet, y)) {
          flat.insert(flat.end(), y.begin(), y.end());
        }
      }
    }

    solvers::SolverWorkspace workspace;
    std::vector<core::DecodedWindow<float>> windows(kPanelWindows);
    // Reconstructs every window in panels of k: reconstruct_into for
    // k = 1, reconstruct_batch_into otherwise.
    const auto reconstruct_all = [&](std::size_t k) {
      for (std::size_t w = 0; w < kPanelWindows; w += k) {
        const std::span<const std::int32_t> rows(flat.data() + w * m, k * m);
        if (k == 1) {
          decoder.reconstruct_into<float>(rows, workspace, windows[w]);
        } else {
          decoder.reconstruct_batch_into<float>(
              rows, k, workspace,
              std::span<core::DecodedWindow<float>>(windows.data() + w, k));
        }
      }
    };
    reconstruct_all(kBatch);  // warm-up: sizes all scratch and outputs
    g_allocations.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
    reconstruct_all(kBatch);
    g_count_allocations.store(false, std::memory_order_relaxed);
    batch_allocations = g_allocations.load(std::memory_order_relaxed);

    // Batch-cost gate: per-window cost of panels of k = 4 and 8 against
    // reconstruct_into over the same windows. Cold decodes (the default
    // policy) make every panel row bitwise the single-row solve, so both
    // sides do the same work. The three passes rotate their order each
    // trial so host drift hits them evenly; the gate is the median over
    // kGateTrials of each trial's per-window ratio.
    const auto time_pass = [&](std::size_t k) {
      const auto start = std::chrono::steady_clock::now();
      reconstruct_all(k);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    std::array<std::vector<double>, kGateWidths.size()> ratios;
    std::array<std::vector<double>, kGateWidths.size()> seconds;
    for (std::size_t trial = 0; trial < kGateTrials; ++trial) {
      std::array<double, kGateWidths.size()> t{};
      for (std::size_t i = 0; i < kGateWidths.size(); ++i) {
        const std::size_t slot = (trial + i) % kGateWidths.size();
        t[slot] = time_pass(kGateWidths[slot]);
      }
      for (std::size_t slot = 0; slot < kGateWidths.size(); ++slot) {
        ratios[slot].push_back(t[slot] / t[0]);
        seconds[slot].push_back(t[slot]);
      }
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    for (std::size_t slot = 0; slot < kGateWidths.size(); ++slot) {
      gate_ratio[slot] = median(ratios[slot]);
      gate_us[slot] = 1e6 * median(seconds[slot]) /
                      static_cast<double>(kPanelWindows);
    }
  }
  const double batch_allocs_per_window =
      static_cast<double>(batch_allocations) /
      static_cast<double>(kPanelWindows);
  std::cout << "batched native decode allocations: " << batch_allocations
            << " over " << kPanelWindows << " windows ("
            << util::format_double(batch_allocs_per_window, 3)
            << " per window, batch 4, backend "
            << linalg::native_backend().name() << ") — "
            << (batch_allocations == 0 ? "PASS" : "FAIL") << "\n\n";
  json.add_row({"alloc-batched-native", "1", "1",
                std::to_string(kPanelWindows), "-", "-", "-", "-", "-",
                util::format_double(batch_allocs_per_window, 3), "4", "-",
                "-"});

  bool batch_cost_reduced = true;
  std::cout << "panel vs single-row reconstruct (native, " << kPanelWindows
            << " windows, median of " << kGateTrials << " rotated trials):\n";
  for (std::size_t slot = 0; slot < kGateWidths.size(); ++slot) {
    const std::size_t k = kGateWidths[slot];
    const bool pass = k == 1 || gate_ratio[slot] < 1.0;
    batch_cost_reduced = batch_cost_reduced && pass;
    std::cout << "  k = " << k << ": "
              << util::format_double(gate_us[slot], 0) << " us/window, "
              << util::format_double(gate_ratio[slot], 2) << "x of k = 1"
              << (k == 1 ? "" : (pass ? " — PASS" : " — FAIL")) << "\n";
    json.add_row({"batch-cost", "1", "1", std::to_string(kPanelWindows), "-",
                  "-", "-", "-", "-", "-", std::to_string(k),
                  util::format_double(gate_us[slot], 1),
                  util::format_double(gate_ratio[slot], 3)});
  }
  std::cout << "\n";

  // ----------------------------------------- phase 1b: re-profile allocs --
  // A v1 stream that switches CR 50 -> 30 mid-session through the in-band
  // kProfile + keyframe mechanism. The switch itself re-warms operator
  // scratch (allocations allowed, bounded to the warm-up windows); after
  // it, steady-state decode must be allocation-free again.
  std::size_t switch_windows = 0;
  std::size_t switch_allocations = 0;
  {
    const core::StreamProfile profile_before = core::profile_for_cr(50.0);
    const core::StreamProfile profile_after = core::profile_for_cr(30.0);
    core::Encoder encoder(profile_before);
    std::vector<core::Packet> packets;
    const std::size_t pre = 8;
    const std::size_t post = 24;
    if (auto announce = encoder.take_profile_packet()) {
      packets.push_back(std::move(*announce));
    }
    for (std::size_t w = 0; w < pre; ++w) {
      packets.push_back(encoder.encode_window(std::span<const std::int16_t>(
          record.samples.data() + (w % record_windows) * n, n)));
    }
    encoder.set_profile(profile_after);
    if (auto announce = encoder.take_profile_packet()) {
      packets.push_back(std::move(*announce));
    }
    for (std::size_t w = pre; w < pre + post; ++w) {
      packets.push_back(encoder.encode_window(std::span<const std::int16_t>(
          record.samples.data() + (w % record_windows) * n, n)));
    }

    core::Decoder decoder(profile_before);
    solvers::SolverWorkspace workspace;
    std::vector<std::int32_t> y;
    core::DecodedWindow<float> window;
    // Warm-up: everything through the switch plus the first 8 windows of
    // the new geometry (first decode at the new shape re-warms scratch).
    const std::size_t counted_from = 1 + pre + 1 + 8;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (i == counted_from) {
        g_allocations.store(0, std::memory_order_relaxed);
        g_count_allocations.store(true, std::memory_order_relaxed);
      }
      if (decoder.consume(packets[i], y) ==
          core::Decoder::FrameOutcome::kWindow) {
        decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                        workspace, window);
        if (i >= counted_from) {
          ++switch_windows;
        }
      }
    }
    g_count_allocations.store(false, std::memory_order_relaxed);
    switch_allocations = g_allocations.load(std::memory_order_relaxed);
  }
  const double switch_allocs_per_window =
      switch_windows == 0 ? -1.0
                          : static_cast<double>(switch_allocations) /
                                static_cast<double>(switch_windows);
  std::cout << "post-reprofile decode allocations: " << switch_allocations
            << " over " << switch_windows << " windows ("
            << util::format_double(switch_allocs_per_window, 3)
            << " per window) — "
            << (switch_allocations == 0 ? "PASS" : "FAIL") << "\n\n";
  json.add_row({"alloc-reprofile", "1", "1", std::to_string(switch_windows),
                "-", "-", "-", "-", "-",
                util::format_double(switch_allocs_per_window, 3), "1", "-",
                "-"});

  // --------------------------------------------------- phase 2: scaling --
  // Pre-encode every node's frame stream, then time submit -> finish for
  // a nodes x workers sweep. The sink verifies per-node in-order
  // delivery as a side effect.
  util::Table table({"batch", "nodes", "workers", "windows", "wall (s)",
                     "windows/s", "speedup", "us/win", "cost vs b1",
                     "p95 (ms)", "queue hw"});
  table.set_title(
      "Fleet decode scaling on the native backend (speedup vs 1 worker, "
      "same nodes; cost vs b1 = per-window cost relative to batch 1)");

  const std::size_t windows_per_node =
      std::min<std::size_t>(record_windows, 12);
  const std::size_t max_nodes = 8;
  std::vector<std::vector<std::vector<std::uint8_t>>> streams(max_nodes);
  for (std::size_t node = 0; node < max_nodes; ++node) {
    // Distinct sensing seed per node: every stream solves a genuinely
    // different recovery problem (the encoder and its decoder agree).
    core::EncoderConfig cs = config.cs;
    cs.seed = config.cs.seed + node;
    core::Encoder encoder(cs, book);
    const auto& rec = db.mote(node % db.size());
    streams[node].reserve(windows_per_node);
    for (std::size_t w = 0; w < windows_per_node; ++w) {
      streams[node].push_back(
          encoder
              .encode_window(std::span<const std::int16_t>(
                  rec.samples.data() + w * n, n))
              .serialize());
    }
  }

  bool in_order = true;
  int exit_code = allocations == 0 && switch_allocations == 0 &&
                          batch_allocations == 0
                      ? 0
                      : 1;
  // decode_batch 1 is the classic per-frame path; k > 1 drains whole
  // batches through fista_panel (same results bitwise; the vector kernels
  // and the sparse projection sweep the batch once). The whole sweep runs on
  // the native backend; "cost vs b1" is the per-window wall cost at
  // batch k over the batch-1 cost of the same nodes x workers shape.
  // Each cell is one timed run whose panel widths depend on when workers
  // wake, so the column informs; the batch-cost gate above gates.
  std::map<std::pair<std::size_t, std::size_t>, double> batch1_cost_us;
  for (const std::size_t decode_batch :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}})
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
    double base_rate = 0.0;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (workers > 1 && nodes == 1) {
        continue;  // one node can never use more than one worker
      }
      wbsn::FleetConfig fleet_config;
      fleet_config.workers = workers;
      fleet_config.queue_depth = 64;
      fleet_config.decode_batch = decode_batch;
      fleet_config.backend = &linalg::native_backend();

      std::vector<std::atomic<std::uint32_t>> delivered(nodes);
      for (auto& d : delivered) {
        d.store(0, std::memory_order_relaxed);
      }
      const auto sink = [&](const wbsn::FleetWindow& window) {
        // Per-node delivery must arrive in submission order.
        const auto expected =
            delivered[window.node_id].fetch_add(1,
                                                std::memory_order_relaxed);
        if (window.sequence != expected) {
          in_order = false;
        }
      };

      wbsn::FleetCoordinator fleet(fleet_config, sink);
      for (std::size_t node = 0; node < nodes; ++node) {
        core::DecoderConfig node_config = config;
        node_config.cs.seed = config.cs.seed + node;
        fleet.add_node(node_config, book);
      }

      const auto start = std::chrono::steady_clock::now();
      for (std::size_t w = 0; w < windows_per_node; ++w) {
        for (std::size_t node = 0; node < nodes; ++node) {
          fleet.submit(static_cast<std::uint32_t>(node),
                       std::vector<std::uint8_t>(streams[node][w]));
        }
      }
      const auto report = fleet.finish();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double rate =
          wall <= 0.0 ? 0.0
                      : static_cast<double>(report.windows_reconstructed) /
                            wall;
      if (workers == 1) {
        base_rate = rate;
      }
      const double speedup = base_rate <= 0.0 ? 0.0 : rate / base_rate;
      const double per_window_us =
          report.windows_reconstructed == 0
              ? 0.0
              : 1e6 * wall /
                    static_cast<double>(report.windows_reconstructed);
      const auto shape = std::make_pair(nodes, workers);
      if (decode_batch == 1) {
        batch1_cost_us[shape] = per_window_us;
      }
      const auto base = batch1_cost_us.find(shape);
      const double cost_ratio =
          base == batch1_cost_us.end() || base->second <= 0.0
              ? 0.0
              : per_window_us / base->second;
      table.add_row({std::to_string(decode_batch), std::to_string(nodes),
                     std::to_string(workers),
                     std::to_string(report.windows_reconstructed),
                     util::format_double(wall, 2),
                     util::format_double(rate, 1),
                     util::format_double(speedup, 2) + "x",
                     util::format_double(per_window_us, 0),
                     decode_batch == 1
                         ? "1.00x"
                         : util::format_double(cost_ratio, 2) + "x",
                     util::format_double(report.latency_p95_s * 1e3, 1),
                     std::to_string(report.queue_high_water)});
      json.add_row({decode_batch > 1 ? "scaling-batched" : "scaling",
                    std::to_string(nodes), std::to_string(workers),
                    std::to_string(report.windows_reconstructed),
                    util::format_double(wall, 3),
                    util::format_double(rate, 2),
                    util::format_double(speedup, 3),
                    util::format_double(report.latency_p95_s * 1e3, 2),
                    std::to_string(report.queue_high_water), "0",
                    std::to_string(decode_batch),
                    util::format_double(per_window_us, 1),
                    util::format_double(cost_ratio, 3)});
      if (report.windows_reconstructed != nodes * windows_per_node) {
        exit_code = 1;
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nper-node in-order delivery: "
            << (in_order ? "PASS" : "FAIL") << "\n";
  std::cout << "panel per-window cost below single-row: "
            << (batch_cost_reduced ? "PASS" : "FAIL") << "\n";
  std::cout << "hardware concurrency      : "
            << std::thread::hardware_concurrency()
            << " (speedup saturates here)\n";
  if (!in_order || !batch_cost_reduced) {
    exit_code = 1;
  }

  const auto json_path = bench::json_output_path(argc, argv);
  if (!json_path.empty() && json.write(json_path)) {
    std::cout << "JSON artefact             : " << json_path << "\n";
  }
  return exit_code;
}
