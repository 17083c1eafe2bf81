// Micro-benchmarks (google-benchmark) of the Backend kernel vocabulary on
// the host: both executing kernel sets — the reference loops and the
// host-native wide-SIMD backend — plus the counting decorator, across the
// primitives the FISTA decoder spends its cycles in. Host wall clock only
// (the Cortex-A8 figures come from the cycle model); the table documents
// what the native kernels buy over the plain loops and catches
// performance regressions.
//
// `--json <path>` additionally writes BENCH_kernels.json (the repo's
// machine-readable artefact convention) from the same runs.
//
// Before timing anything, main() asserts the counting story: a plain
// backend must charge *nothing* to an open OpCounterScope — the hot path
// of the non-counting backends carries no counter branch at all — while
// the CountingBackend decorator must charge. A violation fails the bench.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/obs/flight_recorder.hpp"
#include "csecg/util/rng.hpp"

namespace {

using namespace csecg;

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.gaussian());
  }
  return v;
}

struct Candidate {
  const char* label;  // the requested name, even when aliased to reference
  const linalg::Backend* backend;
};

std::vector<Candidate> candidates() {
  return {{"reference", &linalg::reference_backend()},
          {"native", &linalg::native_backend()},
          {"counting(simd4)", &linalg::counting_simd4_backend()}};
}

void register_kernels() {
  constexpr std::size_t kN = 512;
  for (const auto& c : candidates()) {
    const linalg::Backend* be = c.backend;
    const std::string suffix = std::string("/") + c.label;

    benchmark::RegisterBenchmark(
        ("dot/512" + suffix).c_str(), [be](benchmark::State& state) {
          const auto a = random_vector(kN, 1);
          const auto b = random_vector(kN, 2);
          for (auto _ : state) {
            benchmark::DoNotOptimize(be->dot(a.data(), b.data(), kN));
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) *
              static_cast<std::int64_t>(kN));
        });

    benchmark::RegisterBenchmark(
        ("soft_threshold/512" + suffix).c_str(),
        [be](benchmark::State& state) {
          const auto u = random_vector(kN, 5);
          std::vector<float> y(kN);
          for (auto _ : state) {
            be->soft_threshold(u.data(), 0.4f, y.data(), kN);
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) *
              static_cast<std::int64_t>(kN));
        });

    // Panel-kernel batch-k curves: the per-element cost of each panel
    // kernel as the panel widens (k = 1 is the degenerate single-vector
    // case). items_per_s divides out batch*n, so a flat-or-rising curve
    // per backend is the "panels don't cost more per element" evidence
    // and any superlinear win (cache-blocked traversals amortising) shows
    // up directly.
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8},
                                std::size_t{16}}) {
      std::string batch_tag = "/";
      batch_tag += std::to_string(k) + "x512" + suffix;
      benchmark::RegisterBenchmark(
          ("axpy_batch" + batch_tag).c_str(),
          [be, k](benchmark::State& state) {
            const auto x = random_vector(k * kN, 12);
            auto y = random_vector(k * kN, 13);
            for (auto _ : state) {
              be->axpy_batch(0.37f, x.data(), y.data(), k, kN);
              benchmark::DoNotOptimize(y.data());
            }
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(k * kN));
          });
      benchmark::RegisterBenchmark(
          ("soft_threshold_batch" + batch_tag).c_str(),
          [be, k](benchmark::State& state) {
            const auto u = random_vector(k * kN, 10);
            const auto t = random_vector(k, 11);
            std::vector<float> y(k * kN);
            for (auto _ : state) {
              be->soft_threshold_batch(u.data(), t.data(), y.data(), k, kN);
              benchmark::DoNotOptimize(y.data());
            }
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(k * kN));
          });
    }

    benchmark::RegisterBenchmark(
        ("wavelet_round_trip/512" + suffix).c_str(),
        [be](benchmark::State& state) {
          const dsp::WaveletTransform wt(dsp::Wavelet::from_name("db4"), 512,
                                         5);
          const auto x = random_vector(512, 9);
          std::vector<float> coeffs(512);
          std::vector<float> back(512);
          for (auto _ : state) {
            wt.forward<float>(x, coeffs, *be);
            wt.inverse<float>(coeffs, back, *be);
            benchmark::DoNotOptimize(back.data());
          }
        });
  }

  // The gateway ingest hot path in miniature: CRC a frame-sized buffer,
  // then (ON builds only) append one structured event to the flight
  // recorder's seqlock ring. The benchmark name is identical under
  // CSECG_OBS=ON and =OFF, so check_obs_overhead.sh prices the record()
  // call directly against the bare checksum.
  benchmark::RegisterBenchmark(
      "flight_record/crc300", [](benchmark::State& state) {
        util::Rng rng(30);
        std::vector<std::uint8_t> frame(300);
        for (auto& b : frame) {
          b = static_cast<std::uint8_t>(rng() & 0xFF);
        }
#if CSECG_OBS_ENABLED
        obs::FlightRecorder recorder(1024);
#endif
        std::uint64_t seq = 0;
        for (auto _ : state) {
          const std::uint16_t crc = core::crc16_ccitt(frame);
          benchmark::DoNotOptimize(crc);
#if CSECG_OBS_ENABLED
          recorder.record(obs::FlightEventId::kFrameAccepted, seq, crc);
#endif
          ++seq;
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(frame.size()));
      });
}

/// The structural half of the "counting costs nothing when off" claim:
/// plain backends never touch the thread-local counter (no branch, no
/// charge), the decorator always does. Wall-clock deltas on this
/// container are noise; the absence of counter traffic is checkable
/// exactly.
bool verify_counting_contract() {
  const auto a = random_vector(512, 20);
  auto y = random_vector(512, 21);
  const auto panel = random_vector(4 * 512, 22);
  std::vector<float> panel_out(4 * 512);
  std::vector<float> row_out(4);
  for (const auto& c :
       {Candidate{"reference", &linalg::reference_backend()},
        Candidate{"native", &linalg::native_backend()}}) {
    linalg::OpCounterScope scope;
    benchmark::DoNotOptimize(c.backend->dot(a.data(), y.data(), 512));
    c.backend->soft_threshold(a.data(), 0.1f, y.data(), 512);
    // The panel kernels ride the same no-counter hot path.
    c.backend->axpy_batch(0.5f, panel.data(), panel_out.data(), 4, 512);
    c.backend->subtract_batch(panel.data(), panel_out.data(),
                              panel_out.data(), 4, 512);
    c.backend->norm1_batch(panel.data(), row_out.data(), 4, 512);
    c.backend->dot_batch(panel.data(), panel.data(), row_out.data(), 4, 512);
    const auto& counts = scope.counts();
    const auto total = counts.scalar_mac + counts.scalar_op +
                       counts.vector_mac4 + counts.vector_op4 +
                       counts.leftover_lane + counts.loads + counts.stores;
    if (total != 0) {
      std::fprintf(stderr,
                   "FAIL: plain backend '%s' charged %llu ops to an open "
                   "OpCounterScope; the non-counting hot path must be free\n",
                   c.label, static_cast<unsigned long long>(total));
      return false;
    }
  }
  linalg::OpCounterScope scope;
  benchmark::DoNotOptimize(
      linalg::counting_simd4_backend().dot(a.data(), y.data(), 512));
  if (scope.counts().vector_mac4 == 0) {
    std::fprintf(stderr, "FAIL: CountingBackend charged nothing\n");
    return false;
  }
  const auto macs_before = scope.counts().vector_mac4;
  linalg::counting_simd4_backend().axpy_batch(0.5f, panel.data(),
                                              panel_out.data(), 4, 512);
  // 4 rows x 512/4 packed quads: the panel charge is batch x the per-row
  // formula, not a flat sweep.
  if (scope.counts().vector_mac4 != macs_before + 4 * (512 / 4)) {
    std::fprintf(stderr,
                 "FAIL: CountingBackend mischarged axpy_batch (got %llu)\n",
                 static_cast<unsigned long long>(scope.counts().vector_mac4 -
                                                 macs_before));
    return false;
  }
  std::printf(
      "counting contract OK: plain backends charge 0, decorator charges\n");
  return true;
}

/// Console reporter that additionally captures each run into the repo's
/// JSON artefact convention (BENCH_kernels.json).
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  JsonTeeReporter()
      : report_("kernels_micro",
                {"benchmark", "backend", "ns_per_call", "items_per_s"}) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.report_big_o || run.report_rms) {
        continue;
      }
      const std::string name = run.benchmark_name();
      const auto slash = name.rfind('/');
      const std::string backend =
          slash == std::string::npos ? "" : name.substr(slash + 1);
      const std::string kernel =
          slash == std::string::npos ? name : name.substr(0, slash);
      char ns[64];
      std::snprintf(ns, sizeof ns, "%.1f", run.GetAdjustedRealTime());
      char items[64];
      const auto it = run.counters.find("items_per_second");
      std::snprintf(items, sizeof items, "%.0f",
                    it == run.counters.end() ? 0.0 : it->second.value);
      report_.add_row({kernel, backend, ns, items});
    }
  }

  bool write(const std::string& path) const { return report_.write(path); }

 private:
  bench::JsonReport report_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = csecg::bench::json_output_path(argc, argv);
  if (!verify_counting_contract()) {
    return 1;
  }
  register_kernels();
  benchmark::Initialize(&argc, argv);
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (reporter.write(json_path)) {
    std::printf("JSON artefact written to %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
