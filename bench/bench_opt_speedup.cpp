// EXP-S1 — the §IV-B low-level optimisation study: the CS reconstruction
// priced as the scalar VFP schedule versus the 4-lane vectorised NEON
// schedule by the Cortex-A8 cycle model. Both rows execute the same
// reference loops, so host time would say nothing and is not printed.
//
// Paper claim: "the algorithm runs 2.43 times faster for a compression
// ratio of 50%".

#include <iostream>

#include "bench_common.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/platform/cortex_a8.hpp"
#include "csecg/util/table.hpp"

namespace {

using namespace csecg;

struct ModeResult {
  double a8_seconds_per_packet = 0.0;
  double iterations = 0.0;
};

ModeResult run_mode(const linalg::Backend& backend, std::size_t m) {
  const auto& db = bench::corpus();
  core::DecoderConfig config;
  config.cs.measurements = m;
  config.backend = &backend;
  core::Encoder encoder(config.cs, bench::codebook());
  core::Decoder decoder(config, bench::codebook());
  const platform::CortexA8Model a8;

  linalg::OpCounts ops;
  double iterations = 0.0;
  std::size_t windows = 0;
  for (std::size_t r = 0; r < db.size(); ++r) {
    encoder.reset();
    decoder.reset();
    const auto& record = db.mote(r);
    for (std::size_t off = 0; off + 512 <= record.samples.size();
         off += 512) {
      const auto packet = encoder.encode_window(
          std::span<const std::int16_t>(record.samples.data() + off, 512));
      linalg::OpCounterScope scope;
      const auto window = decoder.decode<float>(packet);
      ops += scope.counts();
      iterations += static_cast<double>(window->iterations);
      ++windows;
    }
  }
  ModeResult result;
  result.a8_seconds_per_packet =
      a8.seconds(ops) / static_cast<double>(windows);
  result.iterations = iterations / static_cast<double>(windows);
  return result;
}

}  // namespace

int main() {
  using namespace csecg;
  std::cout << "EXP-S1 (SS V): speed-up of the vectorised (NEON) decoder "
               "over the scalar (VFP) decoder\n\n";
  util::Table table({"CR (%)", "schedule", "A8 s/packet", "iterations"});
  table.set_title("Low-level optimisation speed-up (paper: 2.43x at CR 50)");
  double speedup_cr50 = 0.0;
  for (const double cr : {30.0, 50.0, 70.0}) {
    const std::size_t m = core::measurements_for_cr(512, cr);
    const auto scalar = run_mode(linalg::counting_scalar_backend(), m);
    const auto simd = run_mode(linalg::counting_simd4_backend(), m);
    table.add_row({util::format_double(cr, 0), "scalar VFP",
                   util::format_double(scalar.a8_seconds_per_packet, 3),
                   util::format_double(scalar.iterations, 0)});
    table.add_row({util::format_double(cr, 0), "NEON 4-lane",
                   util::format_double(simd.a8_seconds_per_packet, 3),
                   util::format_double(simd.iterations, 0)});
    const double speedup =
        scalar.a8_seconds_per_packet / simd.a8_seconds_per_packet;
    table.add_row({util::format_double(cr, 0), "speed-up",
                   util::format_double(speedup, 2) + "x", "-"});
    if (cr == 50.0) {
      speedup_cr50 = speedup;
    }
  }
  table.print(std::cout);
  std::cout << "\nMeasured speed-up at CR 50: "
            << util::format_double(speedup_cr50, 2)
            << "x (paper: 2.43x).\n";
  return 0;
}
