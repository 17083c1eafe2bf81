#ifndef CSECG_CORE_DECODER_HPP
#define CSECG_CORE_DECODER_HPP

/// \file decoder.hpp
/// The coordinator-side reconstruction pipeline (Fig 1, bottom path):
///
///   packet --Huffman decode--> differences
///          --packet reconstruction--> y_t = y_{t-1} + diff
///          --FISTA over A = Phi Psi--> alpha --Psi--> x~
///
/// The precision template parameter is the Fig 6 experiment: T = double is
/// the "Matlab (64bit)" reference, T = float the "iPhone (32bit)" path.
/// Both precisions run through the configured linalg::Backend; composing a
/// CountingBackend lets the cycle model price the decode as the scalar-VFP
/// or the vectorised-NEON schedule (§IV-B).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "csecg/coding/huffman.hpp"
#include "csecg/core/cs_operator.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/solvers/fista.hpp"
#include "csecg/solvers/workspace.hpp"

namespace csecg::core {

/// Receiver-side prior exploitation (Polanía et al., PAPERS.md): how the
/// solver uses what the previous window taught it. Pure receiver policy —
/// never part of the wire contract, so it survives apply_profile and can
/// differ between receivers of the same stream.
struct PriorPolicy {
  /// Seed each window's FISTA from the previous window's solution
  /// (consecutive ECG windows are quasi-periodic) and enable adaptive
  /// gradient restart, which tames the momentum ripples a near-converged
  /// start otherwise excites. The prior is invalidated on keyframes,
  /// re-profiles, resets, backend switches and concealments — a stale
  /// prior must never poison a resynced stream.
  bool warm_start = false;
  /// First-class weighted l1 (EXP-A8): penalise the wavelet
  /// approximation band less than the detail bands. Uses
  /// DecoderConfig::approx_lambda_weight when that is != 1, else the
  /// calibrated default kWeightedL1ApproxWeight.
  bool weighted_l1 = false;
  /// Support-aware stopping threshold handed to the solver (0 = off):
  /// once the support is stable the relative-change tolerance relaxes to
  /// this value. See ShrinkageOptions::support_tolerance.
  double support_tolerance = 0.0;
};

struct DecoderConfig {
  /// Must match the encoder's (esp. seed). v1 streams remove the
  /// out-of-band coupling: construct the Decoder from a StreamProfile
  /// (or let consume() apply the in-band kProfile frame) and both ends
  /// derive this from the same wire bytes.
  EncoderConfig cs;
  std::string wavelet = "db4";   ///< sparsifying basis
  int levels = 5;                ///< decomposition depth
  /// l1 weight as a fraction of ||A^T y||_inf — scale-free across CRs.
  /// 0.01 was calibrated on the synthetic corpus: it reproduces the
  /// paper's iteration counts (Fig 7) at good reconstruction quality.
  double lambda_relative = 0.01;
  std::size_t max_iterations = 2000;
  double tolerance = 1e-5;
  /// Kernel backend the decode runs through (operators, solver and
  /// inverse DWT alike). Null = the library default (the reference
  /// loops). Must outlive the decoder; the shared singletons from
  /// linalg/backend.hpp always do.
  const linalg::Backend* backend = nullptr;
  bool record_objective = false;
  /// l1 weight applied to the wavelet approximation band relative to the
  /// detail bands. 1.0 reproduces the paper's uniform penalty; values
  /// < 1 exploit that ECG always has approximation-band energy (the
  /// weighted-lambda extension, ablated in bench_ablation_wavelet).
  double approx_lambda_weight = 1.0;
  /// Prior-aware decode policy (warm starts, weighted l1, support-aware
  /// tolerance). Receiver policy like the solver knobs above — survives
  /// apply_profile.
  PriorPolicy prior;
};

/// The calibrated approximation-band weight PriorPolicy::weighted_l1
/// applies when approx_lambda_weight is left at 1.0 (the EXP-A8 sweep's
/// PRD optimum: 12.3 % -> 10.6 % at CR 50).
inline constexpr double kWeightedL1ApproxWeight = 0.1;

/// The decoder-side fields of a stream profile as a DecoderConfig;
/// solver knobs (lambda, iterations, kernel mode, ...) take their
/// defaults — they are receiver policy, not part of the wire contract.
DecoderConfig decoder_config_from(const StreamProfile& profile);

/// The inverse projection: the wire-contract fields of \p config as a
/// StreamProfile (announceable by an encoder, appliable by a decoder).
/// nullopt when the config is not representable on the wire — unknown
/// wavelet name, out-of-range geometry, or a codebook the profile id
/// space cannot name (callers with trained codebooks stay v0).
std::optional<StreamProfile> profile_from(
    const DecoderConfig& config,
    std::uint8_t codebook_id = StreamProfile::kCodebookDefault);

/// Result of reconstructing one window.
template <typename T>
struct DecodedWindow {
  std::vector<T> samples;       ///< reconstructed ADC counts, length N
  std::size_t iterations = 0;   ///< FISTA iterations spent
  bool converged = false;
  double residual_norm = 0.0;   ///< ||A a - y||_2 at the solution
  std::vector<double> objective_trace;
};

/// A Decoder instance is not internally synchronised: it caches operators
/// and solver options across windows, so at most one thread may drive it
/// at a time (the fleet scheduler guarantees this per node). Nor is it
/// copyable or movable: its cached operators point at its own sensing
/// matrix and wavelet frame.
class Decoder {
 public:
  /// How far behind the chain a sequence number is still treated as a
  /// stale duplicate/retransmission. Anything further back can only be a
  /// forward jump that wrapped past the int16 midpoint (>= 2^15 windows
  /// lost, e.g. a long outage); an absolute keyframe from there must be
  /// accepted as a re-sync or the decoder deadlocks for up to half the
  /// sequence space. Far larger than any ARQ retransmission window.
  static constexpr std::uint16_t kStaleHorizon = 4096;

  /// How consume() disposed of a frame.
  enum class FrameOutcome : std::uint8_t {
    kWindow,          ///< measurements decoded into y
    kProfileApplied,  ///< in-band profile consumed; no window this frame
    kRejected,        ///< dropped (stale, gap, corrupt, unresolvable)
  };

  Decoder(const DecoderConfig& config, coding::HuffmanCodebook codebook);

  /// Bootstrap construction with zero out-of-band sharing: geometry,
  /// wavelet and codebook all come from \p profile (e.g. the payload of a
  /// received kProfile frame); solver knobs keep their defaults. Throws
  /// on an unrealisable profile — wire input should go through
  /// StreamProfile::parse (which validates) or consume() instead.
  explicit Decoder(const StreamProfile& profile);

  Decoder(Decoder&&) = delete;
  Decoder& operator=(Decoder&&) = delete;

  const DecoderConfig& config() const { return config_; }
  const SensingMatrix& sensing() const { return sensing_; }
  const dsp::WaveletTransform& transform() const { return transform_; }

  /// The kernel backend decodes run through (config_.backend resolved
  /// against the library default).
  const linalg::Backend& backend() const;

  /// Re-routes all subsequent decodes through \p backend (e.g. a
  /// CountingBackend for cycle-model pricing, or the native backend for
  /// host-speed decoding). Receiver policy — survives apply_profile.
  /// Drops the cached Lipschitz constants, so call it before decoding
  /// starts, not per window. \p backend must outlive the decoder.
  void set_backend(const linalg::Backend& backend);

  /// The active stream profile: set at construction when representable,
  /// replaced by every applied kProfile frame.
  const std::optional<StreamProfile>& profile() const { return profile_; }

  /// Entropy-decodes a packet into the integer measurement vector,
  /// updating the inter-packet state. nullopt on corrupt payloads, on a
  /// differential packet with no prior state (lost keyframe), on a
  /// sequence gap (a differential packet whose sequence number does not
  /// directly follow the last decoded packet would silently decode against
  /// stale state, so it is rejected until the next absolute packet
  /// re-synchronises the stream), or on a stale packet — one whose
  /// sequence number is at or behind the chain (a duplicate or late
  /// retransmission); decoding it would rewind the difference chain.
  std::optional<std::vector<std::int32_t>> decode_measurements(
      const Packet& packet);

  /// The single-lead window as the lead group of one:
  /// decode_group_measurements_into over {\p packet}. Reuses \p y's
  /// capacity (allocation-free in steady state). On a lead-group stream
  /// (profile leads > 1) every lone frame is rejected.
  bool decode_measurements_into(const Packet& packet,
                                std::vector<std::int32_t>& y);

  /// The one measurement decoder, for every lead count: entropy-decodes
  /// one complete window of \p group — the stream's leads frames, one
  /// shared sequence number, lead tags 0..leads-1 in order, and one kind
  /// (the encoder's keyframe decision is group-wide). \p y_flat receives
  /// leads * measurements integers packed lead-major, reusing its
  /// capacity. All-or-nothing: any reject (stale, gap, corrupt or
  /// kProfile frame, wrong tag order, mixed kinds) returns false with
  /// \p y_flat unspecified and every difference chain and the sequence
  /// state unchanged, so the caller conceals or sheds the whole window
  /// as one unit. An accepted keyframe invalidates the warm prior. Route
  /// mixed v1 streams through consume().
  bool decode_group_measurements_into(std::span<const Packet> group,
                                      std::vector<std::int32_t>& y_flat);

  /// Profile-aware frame dispatch: kProfile frames (subject to the same
  /// stale-sequence protection as data frames) re-profile the decoder in
  /// place; data frames decode into \p y exactly as
  /// decode_measurements_into. The one entry point a v1 receiver needs.
  FrameOutcome consume(const Packet& packet, std::vector<std::int32_t>& y);

  /// Re-profiles the decoder in place: swaps the sensing matrix, wavelet
  /// frame and codebook, re-binds the cached CsOperators (their scratch
  /// re-warms once), drops the Lipschitz caches and resets the difference
  /// chain. A no-op chain re-sync when \p profile equals the active one.
  /// Returns false (decoder unchanged) when the profile is invalid or
  /// names an unresolvable codebook.
  bool apply_profile(const StreamProfile& profile);

  /// Full pipeline: measurements + FISTA reconstruction.
  template <typename T>
  std::optional<DecodedWindow<T>> decode(const Packet& packet);

  /// Reconstruction only, from an integer measurement vector (used by the
  /// benches, which often bypass the entropy stage).
  template <typename T>
  DecodedWindow<T> reconstruct(std::span<const std::int32_t> y_int) const;

  /// Steady-state allocation-free reconstruction: solver scratch lives in
  /// \p workspace and \p out's buffers are reused across calls. The hot
  /// path of the fleet decode workers.
  template <typename T>
  void reconstruct_into(std::span<const std::int32_t> y_int,
                        solvers::SolverWorkspace& workspace,
                        DecodedWindow<T>& out) const;

  /// Batched reconstruction: \p y_int_flat packs \p batch integer
  /// measurement rows back to back (batch * measurements elements) that
  /// were produced under the same profile, and out[b] receives window b.
  /// Windows run as one panel through solvers::fista_panel, so each
  /// kernel and operator traversal sweeps the whole batch; each window's
  /// solve is bitwise the one reconstruct_into would run from the same
  /// seed. With warm starts off that makes every window bitwise
  /// identical to a reconstruct_into call. With warm starts on, every row
  /// of the panel seeds from the prior cached before the batch
  /// (consecutive windows are quasi-periodic, so the shared neighbour is
  /// a useful seed for all of them) and the batch's last solution
  /// becomes the next prior; the iteration counts differ from sequential
  /// chaining but the fixed points do not. Allocation-free in steady
  /// state for a fixed batch shape.
  template <typename T>
  void reconstruct_batch_into(std::span<const std::int32_t> y_int_flat,
                              std::size_t batch,
                              solvers::SolverWorkspace& workspace,
                              std::span<DecodedWindow<T>> out) const;

  /// Joint lead-group reconstruction: \p y_int_flat packs the group's
  /// leads measurement rows lead-major (leads * measurements elements,
  /// as decode_group_measurements_into produces) and out[l] receives
  /// lead l. Under the uniform penalty the group solves as one l2,1
  /// problem through solvers::fista_panel — one operator traversal per
  /// iteration regardless of L, with the group shrink coupling the
  /// leads' wavelet supports. lambda is lambda_relative times the
  /// penalty's dual norm, max_i ||(A^T y)_{i,:}||_2 over the
  /// coefficients' across-lead l2 norms. Weighted-l1 or
  /// objective-recording configurations solve the leads as uncoupled
  /// rows of the same panel, each with the single-lead lambda rule (the
  /// group penalty is defined for the uniform weight only). leads == 1
  /// is the production single-lead path, bitwise. The warm prior is
  /// group-wide (leads * window doubles): each lead seeds from its own
  /// row of it, and it dies whole on every invalidation — any lead's
  /// re-sync is the group's re-sync.
  template <typename T>
  void reconstruct_group_into(std::span<const std::int32_t> y_int_flat,
                              solvers::SolverWorkspace& workspace,
                              std::span<DecodedWindow<T>> out) const;

  /// Full group pipeline: entropy decode + joint reconstruction. nullopt
  /// when the group is rejected (nothing decoded, chains unchanged).
  template <typename T>
  std::optional<std::vector<DecodedWindow<T>>> decode_group(
      std::span<const Packet> group);

  /// Resets inter-packet state (new session). Also drops any cached
  /// warm-start prior — a new session's first window has no neighbour.
  void reset();

  /// Replaces the prior-aware decode policy (receiver-side, so allowed
  /// any time); rebuilds the cached solver options and drops any warm
  /// prior accumulated under the old policy.
  void set_prior_policy(const PriorPolicy& policy);

  /// Drops the cached warm-start priors (both precisions). Called on
  /// every event after which the previous solution is no longer the
  /// neighbouring window's: keyframes, re-profiles, resets, backend
  /// switches and concealments. Safe to call with warm starts off.
  void invalidate_prior();

  /// True when the next reconstruct_into<T> would seed from a prior.
  template <typename T>
  bool has_warm_prior() const;

 private:
  template <typename T>
  const CsOperator<T>& cs_op() const;

  /// The one reconstruct path behind reconstruct_into (1 row),
  /// reconstruct_batch_into (batch rows) and reconstruct_group_into
  /// (\p group: one row per lead): scales the rows, derives each
  /// problem's lambda, seeds from and refreshes the warm prior, runs the
  /// panel solve and synthesises the windows.
  template <typename T>
  void reconstruct_rows(std::span<const std::int32_t> y_int_flat,
                        std::size_t rows, bool group,
                        solvers::SolverWorkspace& workspace,
                        std::span<DecodedWindow<T>> out) const;

  /// (Re)derives the cached solver options from config_ (weight vector
  /// included); called at construction and after apply_profile.
  void rebuild_solver_options();

  DecoderConfig config_;
  SensingMatrix sensing_;
  dsp::WaveletTransform transform_;
  coding::HuffmanCodebook codebook_;
  // Operators are shape-invariant across windows; constructing them once
  // keeps their time-domain scratch out of the per-window path. They
  // point at sensing_/transform_, whose addresses are stable across
  // apply_profile (contents are move-assigned in place), so a profile
  // switch only needs rebind(), not reconstruction.
  CsOperator<float> op_f_;
  CsOperator<double> op_d_;
  std::optional<StreamProfile> profile_;
  std::vector<std::int32_t> previous_y_;
  std::vector<std::int32_t> zero_scratch_;  ///< constant zero reference
  bool have_previous_ = false;
  /// last_sequence_ is meaningful: set by every accepted frame including
  /// profile frames (which advance the sequence but carry no window).
  bool have_sequence_ = false;
  std::uint16_t last_sequence_ = 0;
  // The Lipschitz constant depends only on the operator; cache per
  // precision so repeated windows skip the power iteration. Solver
  // options are cached so the per-coefficient weight vector is built
  // once, not per window.
  mutable std::optional<double> lipschitz_f_;
  mutable std::optional<double> lipschitz_d_;
  mutable solvers::ShrinkageOptions options_;
  /// Warm-start priors: the previous window's solution per precision
  /// (double storage — float solutions round-trip exactly), consumed as
  /// the next solve's seed when config_.prior.warm_start is on.
  /// reconstruct_into is const on the decode hot path, so the prior is
  /// mutable like the Lipschitz/option caches; the single-thread-per-
  /// decoder contract covers it.
  mutable std::vector<double> prior_f_;
  mutable std::vector<double> prior_d_;
  mutable bool have_prior_f_ = false;
  mutable bool have_prior_d_ = false;
};

}  // namespace csecg::core

#endif  // CSECG_CORE_DECODER_HPP
