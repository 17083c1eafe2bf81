#ifndef CSECG_WBSN_COORDINATOR_HPP
#define CSECG_WBSN_COORDINATOR_HPP

/// \file coordinator.hpp
/// The WBSN-coordinator role (the iPhone): receive frames, run the
/// reconstruction pipeline at 32-bit precision, and account the Cortex-A8
/// cost of every packet so CPU usage (§V: 17.7 % at CR = 50) falls out.
/// When the ARQ gives a window up as unrecoverable, the coordinator can
/// conceal it from the last good reconstruction so the display never
/// shows garbage or stalls.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/decoder.hpp"
#include "csecg/platform/cortex_a8.hpp"

namespace csecg::wbsn {

/// How an unrecoverable window is painted on the display.
enum class ConcealmentStrategy : std::uint8_t {
  kHoldLast = 0,     ///< repeat the last good window
  kInterpolate = 1,  ///< cross-fade between the bracketing good windows
};

struct CoordinatorStats {
  std::size_t frames_received = 0;
  std::size_t frames_rejected = 0;  ///< parse/decode failures
  std::size_t windows_reconstructed = 0;
  std::size_t windows_concealed = 0;  ///< synthesised, not reconstructed
  std::size_t profiles_applied = 0;   ///< in-band kProfile frames consumed
  double modelled_seconds_total = 0.0;  ///< Cortex-A8 model time
  double host_seconds_total = 0.0;      ///< wall clock on this machine
  double iterations_total = 0.0;
  linalg::OpCounts ops_total;

  double mean_iterations() const {
    return windows_reconstructed == 0
               ? 0.0
               : iterations_total /
                     static_cast<double>(windows_reconstructed);
  }
};

/// The Coordinator always decodes through a CountingBackend wrapped
/// around the configured kernel backend (config.backend, or the library
/// default reference loops), so every window's op mix feeds the
/// Cortex-A8 cycle model. It prices the §IV-B NEON schedule whichever
/// kernels execute. Pass a plain backend — wrapping a counting one would
/// double-charge.
class Coordinator {
 public:
  using FrameResult = core::Decoder::FrameOutcome;

  Coordinator(const core::DecoderConfig& config,
              coding::HuffmanCodebook codebook,
              platform::CortexA8Model model = {});

  /// Profile-driven construction (v1): the decoder bootstraps entirely
  /// from \p profile — nothing is shared out-of-band. Usually the profile
  /// parsed from the stream's own announcement frame.
  explicit Coordinator(const core::StreamProfile& profile,
                       platform::CortexA8Model model = {});

  core::Decoder& decoder() { return decoder_; }
  const platform::CortexA8Model& model() const { return model_; }

  /// Re-seats the decode kernels on \p backend (a plain backend — the
  /// coordinator adds its own counting decorator). Lets receivers that
  /// bootstrapped from an in-band profile still pick their kernels.
  void set_backend(const linalg::Backend& backend);

  /// Receiver-side prior policy (warm starts / weighted l1 / support
  /// tolerance) for the wrapped decoder. Concealments through this
  /// coordinator invalidate the warm state automatically.
  void set_prior_policy(const core::PriorPolicy& policy);

  /// Processes one received frame. kProfile frames re-profile the
  /// decoder in place (kProfileApplied — \p window untouched,
  /// concealment reference dropped if the geometry changed); a data
  /// frame reconstructs into \p window (kWindow; float — the iPhone
  /// path) and becomes the reference for later concealment. The frame is
  /// the lead group of one, so on a lead-group stream a lone data frame
  /// rejects (kRejected).
  FrameResult consume_frame(std::span<const std::uint8_t> frame,
                            std::vector<float>& window);

  /// Lead-group variant: \p frames holds one complete group window (the
  /// decoder's leads frames, shared sequence, lead tags in order).
  /// kWindow fills \p windows_flat with the leads reconstructions back
  /// to back (leads * window floats, lead-major) from one joint
  /// group-sparse solve. A single kProfile frame passed as a one-element
  /// group re-profiles (kProfileApplied). Any reject (kRejected) leaves
  /// the decode chains untouched, so the caller conceals the whole
  /// group — leads never skew.
  FrameResult consume_group(
      std::span<const std::vector<std::uint8_t>> frames,
      std::vector<float>& windows_flat);

  /// Synthesises a stand-in for an unrecoverable window by repeating the
  /// last good reconstruction (flat-line zeros if none exists yet).
  std::vector<float> conceal_hold_last();

  /// Synthesises stand-in k (0-based) of a gap of \p gap lost windows by
  /// linearly cross-fading from \p prev (the last good window before the
  /// gap) towards \p next (the first good window after it). Falls back to
  /// copying \p next when \p prev is empty or mismatched.
  std::vector<float> conceal_interpolated(std::span<const float> prev,
                                          std::span<const float> next,
                                          std::size_t k, std::size_t gap);

  /// Decoder CPU usage under the Cortex-A8 model (reconstruction time per
  /// packet over the 2 s packet period).
  double cpu_usage(double packet_period_s = 2.0) const;

  const CoordinatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CoordinatorStats{}; }

 private:
  /// The one decode path behind consume_frame and consume_group: applies
  /// a lone kProfile packet, else decodes \p packets as one lead group
  /// and accounts it. \p group picks the span (window.decode.group with
  /// a leads attribute, or window.decode).
  FrameResult consume_packets(std::span<const core::Packet> packets,
                              bool group, std::vector<float>& windows_flat);
  /// Counts \p frames rejected frames.
  FrameResult reject(std::size_t frames);

  /// Samples one display refresh covers: window * leads (a group paints
  /// all its leads together, so concealment references span the group).
  std::size_t display_samples() const;

  core::Decoder decoder_;
  /// Counting decorator over the decoder's configured backend; installed
  /// at construction so cpu_usage() always has real op counts.
  /// Re-seated (not reassigned — it holds a reference) by set_backend.
  std::optional<linalg::CountingBackend> counting_;
  platform::CortexA8Model model_;
  CoordinatorStats stats_;
  std::vector<float> last_window_;  ///< last good reconstruction
  std::vector<std::int32_t> y_scratch_;  ///< profile-frame consume target
  /// Parse targets; never shrinks, so every payload's capacity survives.
  std::vector<core::Packet> packets_;
};

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_COORDINATOR_HPP
