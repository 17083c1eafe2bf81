#include "csecg/core/codec.hpp"

#include <cmath>
#include <type_traits>

#include "csecg/util/error.hpp"

namespace csecg::core {

// A codec owns a Decoder, whose operators point at its own members.
static_assert(!std::is_move_constructible_v<CsEcgCodec>);

CsEcgCodec::CsEcgCodec(const DecoderConfig& config,
                       const coding::HuffmanCodebook& codebook)
    : config_(config),
      encoder_(config.cs, codebook),
      decoder_(config, codebook) {}

template <typename T>
RecordReport CsEcgCodec::run_record(const ecg::Record& record,
                                    bool keep_per_window) {
  const std::size_t n = config_.cs.window;
  CSECG_CHECK(record.samples.size() >= n,
              "record shorter than one window");
  encoder_.reset();
  decoder_.reset();

  RecordReport report;
  report.record_id = record.id;

  double prd_sum = 0.0;
  double iter_sum = 0.0;

  for (std::size_t offset = 0; offset + n <= record.samples.size();
       offset += n) {
    const std::span<const std::int16_t> window(
        record.samples.data() + offset, n);
    const Packet packet = encoder_.encode_window(window);

    // Wire round trip (serialize/parse keeps the path honest).
    const auto parsed = Packet::parse(packet.serialize());
    CSECG_CHECK(parsed.has_value(), "self-produced packet failed to parse");
    const auto decoded = decoder_.decode<T>(*parsed);
    CSECG_CHECK(decoded.has_value(), "self-produced packet failed to decode");

    // PRD in the original ADC-count domain.
    std::vector<double> original(n);
    std::vector<double> reconstructed(n);
    for (std::size_t i = 0; i < n; ++i) {
      original[i] = static_cast<double>(window[i]);
      reconstructed[i] = static_cast<double>(decoded->samples[i]);
    }
    const double window_prd = ecg::prd(original, reconstructed);

    ++report.windows;
    report.original_bits += n * 11;  // 11-bit ADC samples
    report.compressed_bits += packet.wire_bits();
    prd_sum += window_prd;
    iter_sum += static_cast<double>(decoded->iterations);

    if (keep_per_window) {
      WindowReport w;
      w.wire_bits = packet.wire_bits();
      w.prd = window_prd;
      w.iterations = decoded->iterations;
      w.converged = decoded->converged;
      report.per_window.push_back(w);
    }
  }

  CSECG_CHECK(report.windows > 0, "no complete windows in record");
  report.cr = ecg::compression_ratio(report.original_bits,
                                     report.compressed_bits);
  report.mean_prd = prd_sum / static_cast<double>(report.windows);
  report.mean_snr_db = ecg::snr_from_prd(report.mean_prd);
  report.mean_iterations = iter_sum / static_cast<double>(report.windows);
  return report;
}

template RecordReport CsEcgCodec::run_record<float>(const ecg::Record&,
                                                    bool);
template RecordReport CsEcgCodec::run_record<double>(const ecg::Record&,
                                                     bool);

}  // namespace csecg::core
