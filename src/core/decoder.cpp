#include "csecg/core/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "csecg/core/residual.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::core {

// op_f_/op_d_ point at the decoder's own sensing_/transform_: a moved-to
// decoder would decode through (and dangle on) its source's members.
static_assert(!std::is_move_constructible_v<Decoder>);

namespace {

SensingMatrixConfig sensing_config_from(const EncoderConfig& config) {
  SensingMatrixConfig sensing;
  sensing.type = SensingMatrixType::kSparseBinary;
  sensing.rows = config.measurements;
  sensing.cols = config.window;
  sensing.d = config.d;
  sensing.seed = config.seed;
  return sensing;
}

coding::HuffmanCodebook checked_profile_codebook(
    const StreamProfile& profile) {
  const char* reason = profile.invalid_reason();
  CSECG_CHECK(reason == nullptr, reason ? reason : "invalid stream profile");
  auto codebook = resolve_profile_codebook(profile.codebook_id);
  CSECG_CHECK(codebook.has_value(),
              "stream profile names an unresolvable codebook");
  return std::move(*codebook);
}

const linalg::Backend& resolved_backend(const DecoderConfig& config) {
  return config.backend ? *config.backend : linalg::default_backend();
}

/// Reads one keyframe row: row.size() fixed-width two's-complement
/// fields of \p bits each.
bool read_absolute(std::span<const std::uint8_t> payload, unsigned bits,
                   std::span<std::int32_t> row) {
  if (payload.size() != (row.size() * bits + 7) / 8) {
    // An absolute frame's size is a function of the geometry alone; a
    // mismatch means the frame was produced under a different profile
    // (e.g. its announcement was lost). Decoding it would yield
    // plausible-looking garbage, so reject and wait for a re-announce.
    return false;
  }
  coding::BitReader reader(payload);
  const std::int32_t sign_bit = std::int32_t{1} << (bits - 1);
  for (std::int32_t& value : row) {
    const auto raw = reader.read_bits(bits);
    if (!raw) {
      return false;
    }
    value = static_cast<std::int32_t>(*raw);
    if ((value & sign_bit) != 0) {
      value -= std::int32_t{1} << bits;
    }
  }
  return true;
}

}  // namespace

DecoderConfig decoder_config_from(const StreamProfile& profile) {
  DecoderConfig config;
  config.cs = encoder_config_from(profile);
  const auto name = wavelet_name_from_id(profile.wavelet_id);
  CSECG_CHECK(name.has_value(), "stream profile names an unknown wavelet");
  config.wavelet = *name;
  config.levels = profile.levels;
  return config;
}

std::optional<StreamProfile> profile_from(const DecoderConfig& config,
                                          std::uint8_t codebook_id) {
  const auto wavelet_id = wavelet_id_from_name(config.wavelet);
  if (!wavelet_id) {
    return std::nullopt;
  }
  StreamProfile profile;
  profile.window = config.cs.window;
  profile.measurements = config.cs.measurements;
  profile.d = config.cs.d;
  profile.seed = config.cs.seed;
  profile.keyframe_interval = config.cs.keyframe_interval;
  profile.absolute_bits = config.cs.absolute_bits;
  profile.on_the_fly_indices = config.cs.on_the_fly_indices;
  profile.measurement_shift = config.cs.measurement_shift;
  profile.wavelet_id = *wavelet_id;
  profile.levels = config.levels;
  profile.codebook_id = codebook_id;
  // with_leads keeps the wire version and lead count in agreement: a
  // lead group announces as a v2 frame, a single lead stays v1.
  profile = profile.with_leads(config.cs.leads == 0 ? 1 : config.cs.leads);
  if (!profile.valid() || !resolve_profile_codebook(codebook_id)) {
    return std::nullopt;
  }
  return profile;
}

Decoder::Decoder(const DecoderConfig& config,
                 coding::HuffmanCodebook codebook)
    : config_(config),
      sensing_(sensing_config_from(config.cs)),
      transform_(dsp::Wavelet::from_name(config.wavelet), config.cs.window,
                 config.levels),
      codebook_(std::move(codebook)),
      op_f_(sensing_, transform_, resolved_backend(config)),
      op_d_(sensing_, transform_, resolved_backend(config)),
      previous_y_(config.cs.leads * config.cs.measurements, 0),
      zero_scratch_(config.cs.measurements, 0) {
  CSECG_CHECK(codebook_.size() == kDiffAlphabetSize,
              "decoder needs the 512-symbol difference codebook");
  CSECG_CHECK(config.cs.leads >= 1 &&
                  config.cs.leads <= StreamProfile::kMaxLeads,
              "lead count out of range");
  rebuild_solver_options();
}

Decoder::Decoder(const StreamProfile& profile)
    : Decoder(decoder_config_from(profile),
              checked_profile_codebook(profile)) {
  profile_ = profile;
}

void Decoder::rebuild_solver_options() {
  // The window-invariant solver options (including the per-coefficient
  // weight vector) are built once here; per-window solves only update
  // lambda and the Lipschitz constant.
  options_.max_iterations = config_.max_iterations;
  options_.tolerance = config_.tolerance;
  options_.backend = &resolved_backend(config_);
  options_.record_objective = config_.record_objective;
  // Prior-aware decode: warm starts ride with adaptive restart (a
  // near-converged seed excites momentum ripples plain FISTA would ring
  // on for dozens of iterations). The warm span itself is wired per
  // window in reconstruct_into.
  options_.adaptive_restart = config_.prior.warm_start;
  options_.support_tolerance = config_.prior.support_tolerance;
  options_.warm_start = {};
  options_.weights.clear();
  double approx_weight = config_.approx_lambda_weight;
  if (config_.prior.weighted_l1 && approx_weight == 1.0) {
    approx_weight = kWeightedL1ApproxWeight;
  }
  if (approx_weight != 1.0) {
    const auto layout = transform_.layout();
    options_.weights.assign(config_.cs.window, 1.0);
    for (std::size_t i = 0; i < layout.approx_size; ++i) {
      options_.weights[layout.approx_offset + i] = approx_weight;
    }
  }
}

const linalg::Backend& Decoder::backend() const {
  return resolved_backend(config_);
}

void Decoder::set_backend(const linalg::Backend& backend) {
  config_.backend = &backend;
  op_f_.set_backend(backend);
  op_d_.set_backend(backend);
  // Backends are numerically interchangeable only up to rounding; drop the
  // cached Lipschitz constants so they are re-estimated through the new
  // kernels.
  lipschitz_f_.reset();
  lipschitz_d_.reset();
  invalidate_prior();
  rebuild_solver_options();
}

void Decoder::reset() {
  have_previous_ = false;
  have_sequence_ = false;
  last_sequence_ = 0;
  std::fill(previous_y_.begin(), previous_y_.end(), 0);
  // A new session's first window has no neighbour; a prior from the old
  // session would seed it with unrelated signal.
  invalidate_prior();
}

void Decoder::set_prior_policy(const PriorPolicy& policy) {
  config_.prior = policy;
  invalidate_prior();
  rebuild_solver_options();
}

void Decoder::invalidate_prior() {
  have_prior_f_ = false;
  have_prior_d_ = false;
}

template <typename T>
bool Decoder::has_warm_prior() const {
  if (!config_.prior.warm_start) {
    return false;
  }
  // A group stream's prior covers the whole group (leads * window); a
  // single-lead stream's is one window. Either way a prior of the wrong
  // shape is not warmable.
  const std::size_t expected = config_.cs.leads * config_.cs.window;
  if constexpr (std::is_same_v<T, float>) {
    return have_prior_f_ && prior_f_.size() == expected;
  } else {
    return have_prior_d_ && prior_d_.size() == expected;
  }
}

bool Decoder::apply_profile(const StreamProfile& profile) {
  if (!profile.valid()) {
    obs::add("decoder.profile.rejected");
    return false;
  }
  if (profile_.has_value() && profile == *profile_) {
    // Re-announcement of the active profile (session restart or an
    // encoder answering a state-loss report): the operators are already
    // right, only the difference chain restarts at the coming keyframe.
    // The warm prior still dies — a re-announce marks a stream
    // discontinuity, and the prior's window is on the far side of it.
    have_previous_ = false;
    invalidate_prior();
    obs::add("decoder.profile.applied");
    return true;
  }
  auto codebook = resolve_profile_codebook(profile.codebook_id);
  if (!codebook) {
    obs::add("decoder.profile.rejected");
    return false;
  }
  DecoderConfig config = decoder_config_from(profile);
  // Receiver-side solver policy carries over; only the wire contract
  // changes.
  config.lambda_relative = config_.lambda_relative;
  config.max_iterations = config_.max_iterations;
  config.tolerance = config_.tolerance;
  config.backend = config_.backend;
  config.record_objective = config_.record_objective;
  config.approx_lambda_weight = config_.approx_lambda_weight;
  config.prior = config_.prior;
  config_ = config;
  // Replace contents under stable addresses: op_f_/op_d_ hold pointers to
  // sensing_/transform_, so move-assignment + rebind() keeps them valid
  // without reconstructing the operators.
  sensing_ = SensingMatrix(sensing_config_from(config_.cs));
  transform_ = dsp::WaveletTransform(dsp::Wavelet::from_name(config_.wavelet),
                                     config_.cs.window, config_.levels);
  codebook_ = std::move(*codebook);
  op_f_.rebind();
  op_d_.rebind();
  previous_y_.assign(config_.cs.leads * config_.cs.measurements, 0);
  zero_scratch_.assign(config_.cs.measurements, 0);
  have_previous_ = false;
  lipschitz_f_.reset();
  lipschitz_d_.reset();
  // New geometry and/or basis: a prior in the old coefficient layout is
  // meaningless (and possibly the wrong length).
  invalidate_prior();
  rebuild_solver_options();
  profile_ = profile;
  obs::add("decoder.profile.applied");
  return true;
}

Decoder::FrameOutcome Decoder::consume(const Packet& packet,
                                       std::vector<std::int32_t>& y) {
  if (packet.kind != PacketKind::kProfile) {
    return decode_measurements_into(packet, y) ? FrameOutcome::kWindow
                                               : FrameOutcome::kRejected;
  }
  if (have_sequence_) {
    // Profile frames get the same duplicate/retransmission protection as
    // data frames: re-applying a stale announcement would rewind the
    // difference chain mid-stream. Beyond the horizon it is a re-sync
    // after a long outage and must be accepted (cf. the keyframe rule in
    // decode_group_measurements_into).
    const auto delta = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(packet.sequence - last_sequence_));
    if (delta <= 0 && delta > -static_cast<std::int32_t>(kStaleHorizon)) {
      obs::add("decoder.profile.stale");
      return FrameOutcome::kRejected;
    }
  }
  const auto profile = StreamProfile::parse(packet.payload);
  if (!profile || !apply_profile(*profile)) {
    if (!profile) {
      obs::add("decoder.profile.rejected");
    }
    return FrameOutcome::kRejected;
  }
  last_sequence_ = packet.sequence;
  have_sequence_ = true;
  return FrameOutcome::kProfileApplied;
}

std::optional<std::vector<std::int32_t>> Decoder::decode_measurements(
    const Packet& packet) {
  std::vector<std::int32_t> y;
  if (!decode_measurements_into(packet, y)) {
    return std::nullopt;
  }
  return y;
}

bool Decoder::decode_measurements_into(const Packet& packet,
                                       std::vector<std::int32_t>& y) {
  return decode_group_measurements_into(std::span<const Packet>(&packet, 1),
                                        y);
}

bool Decoder::decode_group_measurements_into(
    std::span<const Packet> group, std::vector<std::int32_t>& y_flat) {
  const std::size_t leads = config_.cs.leads;
  const std::size_t m = config_.cs.measurements;
  if (group.size() != leads) {
    // A lead-group window only decodes whole; a lone frame on a group
    // stream is as malformed as a group on a single-lead one.
    return false;
  }

  // Group invariants: one sequence number, lead tags 0..L-1 in order (a
  // stray lead-tagged frame on a single-lead stream fails here), one
  // kind (the encoder's keyframe decision is group-wide). A profile frame
  // carries no window and must not be read as measurement bits: it fails
  // closed here, and consume() is the profile-aware entry point.
  const std::uint16_t sequence = group[0].sequence;
  const PacketKind kind = group[0].kind;
  if (kind == PacketKind::kProfile) {
    return false;
  }
  for (std::size_t l = 0; l < leads; ++l) {
    if (group[l].sequence != sequence || group[l].kind != kind ||
        group[l].lead != l) {
      return false;
    }
  }

  const bool keyframe = kind == PacketKind::kAbsolute;
  if (have_sequence_) {
    // Reject stale frames (duplicate or reordered retransmissions that
    // arrive after the chain has moved past them): decoding one would
    // rewind previous_y_/last_sequence_ and silently corrupt every
    // differential until the next keyframe. Wrap-safe int16 distance; a
    // group advances one shared chain clock, so this runs once per group.
    const auto delta = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(sequence - last_sequence_));
    if (delta <= 0) {
      // The int16 distance only identifies a genuine duplicate within
      // half the sequence space. A frame "behind" by more than the stale
      // horizon cannot be a retransmission (ARQ buffers are far smaller):
      // it is a forward jump of >= 2^15 - kStaleHorizon windows whose
      // distance wrapped negative, e.g. the first frame after a long
      // outage. A differential frame is useless there either way, but an
      // absolute keyframe must be accepted as a stream re-sync —
      // otherwise the decoder deadlocks until the sender's sequence
      // happens to move back into the accepted half-space.
      const bool recent_past =
          delta > -static_cast<std::int32_t>(kStaleHorizon);
      if (recent_past || !keyframe) {
        return false;
      }
    }
  }
  if (!keyframe &&
      (!have_previous_ ||
       sequence != static_cast<std::uint16_t>(last_sequence_ + 1))) {
    // A differential needs its reference, and a sequence gap means a
    // frame was lost: decoding against stale state would produce silently
    // corrupt measurements, so drop it and wait for the next keyframe.
    return false;
  }

  // Decode every lead before committing anything: a corrupt lead rejects
  // the whole group with all chains and the sequence state untouched.
  y_flat.assign(leads * m, 0);
  for (std::size_t l = 0; l < leads; ++l) {
    const std::span<const std::uint8_t> payload(group[l].payload);
    const std::span<std::int32_t> row(y_flat.data() + l * m, m);
    {
      obs::SpanScope entropy_span("huffman_decode", sequence);
      entropy_span.attribute("keyframe", keyframe ? 1.0 : 0.0);
      if (leads > 1) {
        entropy_span.attribute("lead", static_cast<double>(l));
      }
      bool ok = false;
      if (keyframe) {
        ok = read_absolute(payload, config_.cs.absolute_bits, row);
      } else {
        // Huffman-decode into differences (against a zero reference);
        // y_t = y_{t-1} + diff below is its own observable stage.
        coding::BitReader reader(payload);
        ok = decode_difference(reader, codebook_,
                               std::span<const std::int32_t>(zero_scratch_),
                               row);
      }
      if (!ok) {
        return false;
      }
    }
    if (!keyframe) {
      obs::SpanScope reconstruct_span("packet_reconstruct", sequence);
      for (std::size_t i = 0; i < m; ++i) {
        row[i] += previous_y_[l * m + i];
      }
    }
  }
  if (keyframe) {
    // An accepted keyframe (re)starts every lead's difference chain —
    // possibly after a loss gap or an ARQ gap-abandonment, where the last
    // reconstruction is not this window's neighbour. The warm prior dies
    // with the old chain; the differentials that follow rebuild it.
    invalidate_prior();
  }

  previous_y_.assign(y_flat.begin(), y_flat.end());
  have_previous_ = true;
  have_sequence_ = true;
  last_sequence_ = sequence;
  return true;
}

template <typename T>
std::optional<DecodedWindow<T>> Decoder::decode(const Packet& packet) {
  auto y = decode_measurements(packet);
  if (!y) {
    return std::nullopt;
  }
  return reconstruct<T>(std::span<const std::int32_t>(*y));
}

template <typename T>
const CsOperator<T>& Decoder::cs_op() const {
  if constexpr (std::is_same_v<T, float>) {
    return op_f_;
  } else {
    return op_d_;
  }
}

template <typename T>
DecodedWindow<T> Decoder::reconstruct(
    std::span<const std::int32_t> y_int) const {
  solvers::SolverWorkspace workspace;
  DecodedWindow<T> window;
  reconstruct_into<T>(y_int, workspace, window);
  return window;
}

template <typename T>
void Decoder::reconstruct_into(std::span<const std::int32_t> y_int,
                               solvers::SolverWorkspace& workspace,
                               DecodedWindow<T>& out) const {
  reconstruct_rows<T>(y_int, 1, /*group=*/false, workspace,
                      std::span<DecodedWindow<T>>(&out, 1));
}

template <typename T>
void Decoder::reconstruct_batch_into(std::span<const std::int32_t> y_int_flat,
                                     std::size_t batch,
                                     solvers::SolverWorkspace& workspace,
                                     std::span<DecodedWindow<T>> out) const {
  reconstruct_rows<T>(y_int_flat, batch, /*group=*/false, workspace, out);
}

template <typename T>
void Decoder::reconstruct_group_into(std::span<const std::int32_t> y_int_flat,
                                     solvers::SolverWorkspace& workspace,
                                     std::span<DecodedWindow<T>> out) const {
  reconstruct_rows<T>(y_int_flat, config_.cs.leads, /*group=*/true, workspace,
                      out);
}

template <typename T>
void Decoder::reconstruct_rows(std::span<const std::int32_t> y_int_flat,
                               std::size_t rows, bool group,
                               solvers::SolverWorkspace& workspace,
                               std::span<DecodedWindow<T>> out) const {
  const std::size_t m = config_.cs.measurements;
  const std::size_t n = config_.cs.window;
  CSECG_CHECK(y_int_flat.size() == rows * m,
              "measurement vector length mismatch");
  CSECG_CHECK(out.size() == rows, "output span length mismatch");
  if (rows == 0) {
    return;
  }
  // A lead group solves jointly (one l2,1 problem coupling its leads)
  // under the uniform penalty; the group penalty is undefined for
  // per-coefficient weights, and objective traces are per row, so those
  // configurations solve the leads as uncoupled rows.
  const std::size_t leads =
      group && options_.weights.empty() && !config_.record_objective ? rows
                                                                     : 1;
  const std::size_t problems = rows / leads;

  auto& ws = workspace.buffers<T>();
  const CsOperator<T>& A = cs_op<T>();
  const linalg::Backend& be = A.backend();

  // The mote already applied the 1/sqrt(d) scale in Q15 (its relative
  // error vs the exact scale is ~2e-5, far below the CS recovery error),
  // so the integers are the Phi x measurements — up to the optional
  // measurement-quantisation shift, which is undone here.
  const double requantize =
      std::ldexp(1.0, static_cast<int>(config_.cs.measurement_shift));
  std::vector<T>& y = ws.aux_y;
  y.resize(rows * m);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<T>(static_cast<double>(y_int_flat[i]) * requantize);
  }

  // lambda scaled to the measurement magnitude: lambda_rel times the
  // penalty's dual norm of A^T y. For one row that is ||A^T y||_inf. The
  // l2,1 penalty's dual norm is the max over coefficients of the
  // ACROSS-lead l2 norm, max_i ||(A^T y)_{i,:}||_2 — the loudest
  // coefficient *group*, not the loudest lead. For correlated leads it
  // grows toward sqrt(L) times the single-row rule, which keeps the
  // effective per-lead penalty (and hence the iteration count) on the
  // single-lead operating point instead of under-regularising the group.
  std::vector<T>& aty = ws.aux_n;
  std::vector<T>& group_sq = ws.gradient;  // fista_panel re-inits it
  aty.resize(n);
  ws.aux_lambdas.resize(problems);
  for (std::size_t p = 0; p < problems; ++p) {
    if (leads == 1) {
      A.apply_adjoint(std::span<const T>(y.data() + p * m, m),
                      std::span<T>(aty));
      ws.aux_lambdas[p] =
          config_.lambda_relative *
          static_cast<double>(be.norm_inf(aty.data(), aty.size()));
      continue;
    }
    group_sq.assign(n, T{});
    for (std::size_t l = 0; l < leads; ++l) {
      A.apply_adjoint(std::span<const T>(y.data() + (p * leads + l) * m, m),
                      std::span<T>(aty));
      for (std::size_t i = 0; i < n; ++i) {
        group_sq[i] += aty[i] * aty[i];
      }
    }
    double group_max_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      group_max_sq = std::max(group_max_sq, static_cast<double>(group_sq[i]));
    }
    ws.aux_lambdas[p] = config_.lambda_relative * std::sqrt(group_max_sq);
  }

  // The objective is separable over rows, so the gradient's Lipschitz
  // constant is the per-row 2 ||A||^2 whatever the panel shape.
  auto& cache = std::is_same_v<T, float> ? lipschitz_f_ : lipschitz_d_;
  if (!cache) {
    cache = 2.0 * linalg::estimate_spectral_norm_squared(A);
  }
  options_.lipschitz = cache;

  // Prior-aware decode: seed from the previous solution when the policy
  // is on and a valid prior survives (nothing invalidated it since the
  // last solve of this precision). A group's prior holds one row per
  // lead, and each lead seeds from its own row. A batch of single-lead
  // windows seeds every row from the one prior cached before the batch:
  // consecutive ECG windows are quasi-periodic, so the shared neighbour
  // is a useful seed for all of them — deliberately different from
  // sequential chaining, where window b seeds from window b-1's fresh
  // solution; the fixed point is unchanged either way (warm starts trade
  // iterations, never the solution).
  const std::size_t prior_rows = group ? rows : 1;
  std::vector<double>& prior = std::is_same_v<T, float> ? prior_f_ : prior_d_;
  bool& have_prior = std::is_same_v<T, float> ? have_prior_f_ : have_prior_d_;
  const bool warmable = config_.prior.warm_start && have_prior &&
                        prior.size() == prior_rows * n;
  if (warmable && rows > prior_rows) {
    ws.aux_warm.resize(rows * n);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(prior.begin(), prior.end(),
                ws.aux_warm.begin() + static_cast<std::ptrdiff_t>(r * n));
    }
    options_.warm_start = std::span<const double>(ws.aux_warm);
  } else {
    options_.warm_start =
        warmable ? std::span<const double>(prior) : std::span<const double>{};
  }

  std::span<solvers::ShrinkageResult<T>> solves;
  {
    obs::SpanScope fista_span("fista");
    if (rows > 1) {
      fista_span.attribute(group ? "leads" : "batch",
                           static_cast<double>(rows));
    }
    fista_span.attribute("measurements", static_cast<double>(m));
    fista_span.attribute("warm", warmable ? 1.0 : 0.0);
    solves = solvers::fista_panel<T>(
        A, std::span<const T>(y), std::span<const double>(ws.aux_lambdas),
        leads, options_, workspace);
    if (rows == 1) {
      fista_span.attribute("iterations",
                           static_cast<double>(solves[0].iterations));
      fista_span.attribute("converged", solves[0].converged ? 1.0 : 0.0);
    }
  }
  // Never leave a span into a prior or seed buffer cached in options_
  // (apply_profile reallocates the prior); the next solve re-wires it.
  options_.warm_start = {};
  if (config_.prior.warm_start) {
    // The next prior is the panel's last prior_rows rows: a batch's last
    // window, exactly as if it had been decoded last sequentially, or
    // every lead of a group.
    prior.resize(prior_rows * n);
    for (std::size_t r = 0; r < prior_rows; ++r) {
      const auto& solution = solves[rows - prior_rows + r].solution;
      std::copy(solution.begin(), solution.end(),
                prior.begin() + static_cast<std::ptrdiff_t>(r * n));
    }
    have_prior = true;
  }

  obs::SpanScope idwt_span("idwt");
  for (std::size_t r = 0; r < rows; ++r) {
    const solvers::ShrinkageResult<T>& solve = solves[r];
    out[r].iterations = solve.iterations;
    out[r].converged = solve.converged;
    out[r].residual_norm = solve.final_residual_norm;
    out[r].objective_trace.assign(solve.objective_trace.begin(),
                                  solve.objective_trace.end());
    out[r].samples.resize(n);
    transform_.inverse<T>(std::span<const T>(solve.solution),
                          std::span<T>(out[r].samples), be);
  }
}

template <typename T>
std::optional<std::vector<DecodedWindow<T>>> Decoder::decode_group(
    std::span<const Packet> group) {
  std::vector<std::int32_t> y_flat;
  if (!decode_group_measurements_into(group, y_flat)) {
    return std::nullopt;
  }
  std::vector<DecodedWindow<T>> out(config_.cs.leads);
  solvers::SolverWorkspace workspace;
  reconstruct_group_into<T>(std::span<const std::int32_t>(y_flat), workspace,
                            std::span<DecodedWindow<T>>(out));
  return out;
}

template bool Decoder::has_warm_prior<float>() const;
template bool Decoder::has_warm_prior<double>() const;
template std::optional<DecodedWindow<float>> Decoder::decode<float>(
    const Packet&);
template std::optional<DecodedWindow<double>> Decoder::decode<double>(
    const Packet&);
template DecodedWindow<float> Decoder::reconstruct<float>(
    std::span<const std::int32_t>) const;
template DecodedWindow<double> Decoder::reconstruct<double>(
    std::span<const std::int32_t>) const;
template void Decoder::reconstruct_into<float>(
    std::span<const std::int32_t>, solvers::SolverWorkspace&,
    DecodedWindow<float>&) const;
template void Decoder::reconstruct_into<double>(
    std::span<const std::int32_t>, solvers::SolverWorkspace&,
    DecodedWindow<double>&) const;
template void Decoder::reconstruct_batch_into<float>(
    std::span<const std::int32_t>, std::size_t, solvers::SolverWorkspace&,
    std::span<DecodedWindow<float>>) const;
template void Decoder::reconstruct_batch_into<double>(
    std::span<const std::int32_t>, std::size_t, solvers::SolverWorkspace&,
    std::span<DecodedWindow<double>>) const;
template void Decoder::reconstruct_group_into<float>(
    std::span<const std::int32_t>, solvers::SolverWorkspace&,
    std::span<DecodedWindow<float>>) const;
template void Decoder::reconstruct_group_into<double>(
    std::span<const std::int32_t>, solvers::SolverWorkspace&,
    std::span<DecodedWindow<double>>) const;
template std::optional<std::vector<DecodedWindow<float>>>
Decoder::decode_group<float>(std::span<const Packet>);
template std::optional<std::vector<DecodedWindow<double>>>
Decoder::decode_group<double>(std::span<const Packet>);

}  // namespace csecg::core
