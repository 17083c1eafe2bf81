#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <string>

#include "csecg/core/cs_operator.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/linalg/kernels.hpp"
#include "csecg/platform/cortex_a8.hpp"
#include "csecg/solvers/workspace.hpp"

namespace perfbench {

namespace {

/// Every this-many solves, the per-iteration kernels are timed in
/// isolation.
constexpr std::size_t kKernelSampleEvery = 4;
/// Calls per kernel timing; the median is kept.
constexpr int kKernelRepeats = 9;
/// Measured windows the Cortex-A8 pricing covers (counting is slow).
constexpr std::size_t kPricedWindows = 32;

template <typename Fn>
double median_call_us(Fn&& fn) {
  std::vector<double> times(kKernelRepeats);
  for (double& t : times) {
    const auto begin = Clock::now();
    fn();
    t = seconds_between(begin, Clock::now()) * 1e6;
  }
  return quantile(std::move(times), 0.5);
}

/// Replays one node's events through a standalone decoder.
class NodeReplay {
 public:
  NodeReplay(const Inputs& inputs, std::size_t index,
             const NodeRecord& record, ReplayCheck& check,
             LayerSamples* layers, Clock::time_point epoch)
      : spec_(inputs.spec),
        node_(inputs.nodes[index]),
        record_(record),
        check_(check),
        layers_(layers),
        epoch_(epoch),
        index_(static_cast<std::uint32_t>(index)),
        n_(inputs.window),
        m_(node_.profile.measurements),
        leads_(spec_.leads),
        batch_(std::max<std::size_t>(1, spec_.decode_batch)),
        decoder_(node_.profile),
        op_(decoder_.sensing(), decoder_.transform(),
            linalg::native_backend()),
        last_(leads_ * n_, 0.0f) {
    decoder_.set_backend(linalg::native_backend());
    decoder_.set_prior_policy(spec_.prior);
  }

  void run() {
    for (const RxEvent& event : node_.events) {
      switch (event.kind) {
        case RxEvent::Kind::kProfile:
          flush();
          if (core::Packet::parse_into(event.frames.front(), packet_)) {
            decoder_.consume(packet_, y_);
          }
          break;
        case RxEvent::Kind::kLost:
          flush();
          conceal(event.slot);
          break;
        case RxEvent::Kind::kWindow:
          if (leads_ > 1) {
            group_window(event);
          } else {
            single_window(event);
          }
          break;
      }
    }
    flush();
  }

 private:
  /// Times \p fn and, in the traced replay, records it as a span.
  template <typename Fn>
  double timed(const char* name, std::uint16_t slot, Fn&& fn) {
    const auto begin = Clock::now();
    fn();
    const auto end = Clock::now();
    if (layers_ != nullptr) {
      layers_->spans.push_back({name, index_, slot,
                                seconds_between(epoch_, begin),
                                seconds_between(epoch_, end)});
    }
    return seconds_between(begin, end);
  }

  void single_window(const RxEvent& event) {
    if (event.frames.size() != 1) {
      flush();
      conceal(event.slot);
      return;
    }
    if (pending_slots_.empty()) {
      unit_begin_ = Clock::now();
      unit_parse_s_ = 0.0;
      unit_entropy_s_ = 0.0;
    }
    bool ok = false;
    unit_parse_s_ += timed("packet.parse", event.slot, [&] {
      ok = core::Packet::parse_into(event.frames.front(), packet_);
    });
    if (ok) {
      unit_entropy_s_ += timed("decoder.entropy", event.slot, [&] {
        ok = decoder_.decode_measurements_into(packet_, y_);
      });
    }
    if (!ok) {
      flush();
      conceal(event.slot);
      return;
    }
    if (batch_ > 1) {
      pending_y_.insert(pending_y_.end(), y_.begin(), y_.end());
      pending_slots_.push_back(event.slot);
      if (pending_slots_.size() >= batch_) {
        flush();
      }
      return;
    }
    const bool warm = decoder_.has_warm_prior<float>();
    const double reconstruct_s =
        timed("decoder.reconstruct", event.slot, [&] {
          decoder_.reconstruct_into<float>(std::span<const std::int32_t>(y_),
                                           workspace_, window_);
        });
    last_.assign(window_.samples.begin(), window_.samples.end());
    compare(event.slot, false, window_.iterations, last_);
    const double iterations = static_cast<double>(window_.iterations);
    record_layers(y_, 1, std::span<const double>(&iterations, 1), false,
                  warm ? 1 : 0, reconstruct_s, event.slot);
  }

  void flush() {
    const std::size_t rows = pending_slots_.size();
    if (rows == 0) {
      return;
    }
    if (batch_rows_.size() < rows) {
      batch_rows_.resize(rows);
    }
    const std::span<core::DecodedWindow<float>> out(batch_rows_.data(), rows);
    const std::uint16_t slot = pending_slots_.front();
    const double reconstruct_s = timed("decoder.reconstruct", slot, [&] {
      decoder_.reconstruct_batch_into<float>(
          std::span<const std::int32_t>(pending_y_), rows, workspace_, out);
    });
    std::vector<double> iterations(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      compare(pending_slots_[r], false, out[r].iterations, out[r].samples);
      iterations[r] = static_cast<double>(out[r].iterations);
    }
    last_.assign(out[rows - 1].samples.begin(), out[rows - 1].samples.end());
    record_layers(pending_y_, rows, iterations, false, 0, reconstruct_s,
                  slot);
    pending_y_.clear();
    pending_slots_.clear();
  }

  void group_window(const RxEvent& event) {
    unit_begin_ = Clock::now();
    bool ok = event.frames.size() == leads_;
    group_packets_.resize(leads_);
    unit_parse_s_ = timed("packet.parse", event.slot, [&] {
      for (std::size_t l = 0; ok && l < leads_; ++l) {
        ok = core::Packet::parse_into(event.frames[l], group_packets_[l]);
      }
    });
    if (ok) {
      unit_entropy_s_ = timed("decoder.entropy", event.slot, [&] {
        ok = decoder_.decode_group_measurements_into(
            std::span<const core::Packet>(group_packets_), y_);
      });
    }
    if (!ok) {
      conceal(event.slot);
      return;
    }
    if (group_rows_.size() < leads_) {
      group_rows_.resize(leads_);
    }
    const std::span<core::DecodedWindow<float>> out(group_rows_.data(),
                                                    leads_);
    const bool warm = decoder_.has_warm_prior<float>();
    const double reconstruct_s =
        timed("decoder.reconstruct", event.slot, [&] {
          decoder_.reconstruct_group_into<float>(
              std::span<const std::int32_t>(y_), workspace_, out);
        });
    last_.clear();
    for (std::size_t l = 0; l < leads_; ++l) {
      last_.insert(last_.end(), out[l].samples.begin(), out[l].samples.end());
    }
    compare(event.slot, false, out[0].iterations, last_);
    const std::vector<double> iterations(
        leads_, static_cast<double>(out[0].iterations));
    record_layers(y_, leads_, iterations, true, warm ? 1 : 0, reconstruct_s,
                  event.slot);
  }

  void conceal(std::uint16_t slot) {
    decoder_.invalidate_prior();
    compare(slot, true, 0, last_);
  }

  void compare(std::uint16_t slot, bool concealed, std::size_t iterations,
               const std::vector<float>& samples) {
    ++check_.windows;
    const auto fail = [&](const char* what) {
      if (check_.mismatches++ == 0) {
        check_.first_mismatch = "node " + std::to_string(index_) + " slot " +
                                std::to_string(slot) + ": " + what;
      }
    };
    if (slot >= record_.windows.size()) {
      fail("slot beyond the run");
      return;
    }
    const WindowOutcome& out = record_.windows[slot];
    const std::size_t width = leads_ * n_;
    if (!out.delivered) {
      fail("never delivered");
    } else if (out.concealed != concealed) {
      fail("concealment differs");
    } else if (!concealed && out.iterations != iterations) {
      fail("iteration count differs");
    } else if (samples.size() != width ||
               std::memcmp(record_.samples.data() + slot * width,
                           samples.data(), width * sizeof(float)) != 0) {
      fail("samples differ");
    }
  }

  /// Traced replay only: per-row layer samples for one solve over
  /// \p rows rows, plus lambda/IDWT in isolation and, every few solves,
  /// the per-iteration kernels at the workload's panel width.
  void record_layers(std::span<const std::int32_t> y_rows, std::size_t rows,
                     std::span<const double> row_iterations, bool group,
                     std::size_t warm, double reconstruct_s,
                     std::uint16_t slot) {
    if (layers_ == nullptr) {
      return;
    }
    LayerSamples& L = *layers_;
    const auto& backend = linalg::native_backend();
    const auto& transform = decoder_.transform();
    y_float_.resize(rows * m_);
    for (std::size_t i = 0; i < rows * m_; ++i) {
      y_float_[i] = static_cast<float>(static_cast<double>(y_rows[i]));
    }
    aty_.resize(rows * n_);
    x_.resize(rows * n_);
    const double lambda_s = timed("decoder.lambda", slot, [&] {
      if (rows == 1) {
        op_.apply_adjoint(std::span<const float>(y_float_),
                          std::span<float>(aty_));
      } else {
        op_.apply_adjoint_batch(std::span<const float>(y_float_),
                                std::span<float>(aty_), rows);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        lambda_sink_ += backend.norm_inf(aty_.data() + r * n_, n_);
      }
    });
    const double idwt_s = timed("decoder.idwt", slot, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        transform.inverse<float>(
            std::span<const float>(aty_.data() + r * n_, n_),
            std::span<float>(x_.data() + r * n_, n_), backend);
      }
    });

    const double per_row = 1.0 / static_cast<double>(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      L.parse_us.push_back(unit_parse_s_ * per_row * 1e6);
      L.entropy_us.push_back(unit_entropy_s_ * per_row * 1e6);
      L.lambda_us.push_back(lambda_s * per_row * 1e6);
      L.reconstruct_ms.push_back(reconstruct_s * per_row * 1e3);
      L.idwt_us.push_back(idwt_s * per_row * 1e6);
    }
    if (group) {
      L.iterations.push_back(row_iterations[0]);
      ++L.solves;
    } else {
      L.iterations.insert(L.iterations.end(), row_iterations.begin(),
                          row_iterations.end());
      L.solves += rows;
    }
    L.warm_solves += warm;
    L.decode_path_s += unit_parse_s_ + unit_entropy_s_ + reconstruct_s;
    L.decoded_windows += rows;

    if (solves_seen_++ % kKernelSampleEvery == 0) {
      time_kernels(rows, row_iterations, reconstruct_s, lambda_s, idwt_s,
                   group, slot);
    }
    L.spans.push_back({"replay.unit", index_, slot,
                       seconds_between(epoch_, unit_begin_),
                       seconds_between(epoch_, Clock::now())});
  }

  void time_kernels(std::size_t rows, std::span<const double> row_iterations,
                    double reconstruct_s, double lambda_s, double idwt_s,
                    bool group, std::uint16_t slot) {
    LayerSamples& L = *layers_;
    const auto& backend = linalg::native_backend();
    const auto& transform = decoder_.transform();
    const auto& phi = decoder_.sensing();
    // The panel width the workload's solver runs: the lead group, the
    // decode batch, or a single row.
    const std::size_t width = group ? leads_ : batch_;
    panel_x_.resize(width * n_);
    panel_y_.resize(width * m_);
    panel_out_.resize(width * n_);
    for (std::size_t r = 0; r < width; ++r) {
      std::copy_n(aty_.begin() + static_cast<std::ptrdiff_t>((r % rows) * n_),
                  n_, panel_x_.begin() + static_cast<std::ptrdiff_t>(r * n_));
      std::copy_n(
          y_float_.begin() + static_cast<std::ptrdiff_t>((r % rows) * m_), m_,
          panel_y_.begin() + static_cast<std::ptrdiff_t>(r * m_));
    }
    const std::span<const float> x(panel_x_);
    const std::span<float> y(panel_y_);
    const std::span<float> out(panel_out_);
    const float threshold =
        0.01f * backend.norm_inf(panel_x_.data(), panel_x_.size());
    thresholds_.assign(width, threshold);
    const double w = static_cast<double>(width);
    double phi_us = 0.0;
    double phit_us = 0.0;
    double synthesis_us = 0.0;
    double analysis_us = 0.0;
    double shrink_us = 0.0;
    timed("kernels", slot, [&] {
      phi_us = median_call_us([&] {
        width == 1 ? phi.apply(x, y) : phi.apply_batch(x, y, width);
      }) / w;
      phit_us = median_call_us([&] {
        width == 1 ? phi.apply_transpose(std::span<const float>(panel_y_), out)
                   : phi.apply_transpose_batch(
                         std::span<const float>(panel_y_), out, width);
      }) / w;
      synthesis_us = median_call_us([&] {
        width == 1 ? transform.inverse<float>(x, out, backend)
                   : transform.inverse_batch<float>(x, out, width, backend);
      }) / w;
      analysis_us = median_call_us([&] {
        width == 1 ? transform.forward<float>(x, out, backend)
                   : transform.forward_batch<float>(x, out, width, backend);
      }) / w;
      shrink_us = median_call_us([&] {
        if (group) {
          backend.group_soft_threshold_batch(panel_x_.data(), threshold,
                                             panel_out_.data(), width, n_);
        } else if (width > 1) {
          backend.soft_threshold_batch(panel_x_.data(), thresholds_.data(),
                                       panel_out_.data(), width, n_);
        } else {
          backend.soft_threshold(panel_x_.data(), threshold,
                                 panel_out_.data(), n_);
        }
      }) / w;
    });
    L.phi_us.push_back(phi_us);
    L.phit_us.push_back(phit_us);
    L.synthesis_us.push_back(synthesis_us);
    L.analysis_us.push_back(analysis_us);
    L.shrink_us.push_back(shrink_us);
    const double kernel_row_us =
        phi_us + phit_us + synthesis_us + analysis_us + shrink_us;
    const double row_iterations_total = std::accumulate(
        row_iterations.begin(), row_iterations.end(), 0.0);
    const double reconstruct_us = reconstruct_s * 1e6;
    if (reconstruct_us > 0.0) {
      L.bookkeeping_pct.push_back(
          100.0 *
          (reconstruct_us - row_iterations_total * kernel_row_us -
           (lambda_s + idwt_s) * 1e6) /
          reconstruct_us);
    }
  }

  const WorkloadSpec& spec_;
  const NodeInput& node_;
  const NodeRecord& record_;
  ReplayCheck& check_;
  LayerSamples* layers_;
  Clock::time_point epoch_;
  std::uint32_t index_;
  std::size_t n_;
  std::size_t m_;
  std::size_t leads_;
  std::size_t batch_;
  core::Decoder decoder_;
  core::CsOperator<float> op_;
  solvers::SolverWorkspace workspace_;
  core::Packet packet_;
  std::vector<core::Packet> group_packets_;
  std::vector<std::int32_t> y_;
  core::DecodedWindow<float> window_;
  std::vector<core::DecodedWindow<float>> batch_rows_;
  std::vector<core::DecodedWindow<float>> group_rows_;
  std::vector<float> last_;
  std::vector<std::int32_t> pending_y_;
  std::vector<std::uint16_t> pending_slots_;
  Clock::time_point unit_begin_;
  double unit_parse_s_ = 0.0;
  double unit_entropy_s_ = 0.0;
  std::size_t solves_seen_ = 0;
  // Layer-timing scratch.
  std::vector<float> y_float_;
  std::vector<float> aty_;
  std::vector<float> x_;
  std::vector<float> panel_x_;
  std::vector<float> panel_y_;
  std::vector<float> panel_out_;
  std::vector<float> thresholds_;
  float lambda_sink_ = 0.0f;  ///< keeps the timed norm_inf result live
};

}  // namespace

ReplayCheck replay(const Inputs& inputs, const std::vector<NodeRecord>& records,
                   const std::vector<std::size_t>& nodes,
                   LayerSamples* layers) {
  ReplayCheck check;
  const auto epoch = Clock::now();
  for (const std::size_t node : nodes) {
    NodeReplay(inputs, node, records[node], check, layers, epoch).run();
  }
  return check;
}

double a8_mcycles_per_window(const Inputs& inputs,
                             const std::vector<std::size_t>& nodes) {
  const WorkloadSpec& spec = inputs.spec;
  const linalg::CountingBackend counting(linalg::native_backend());
  const platform::CortexA8Model model;
  double cycles = 0.0;
  std::size_t windows = 0;
  for (const std::size_t index : nodes) {
    if (windows >= kPricedWindows) {
      break;
    }
    const NodeInput& node = inputs.nodes[index];
    core::Decoder decoder(node.profile);
    decoder.set_backend(counting);
    decoder.set_prior_policy(spec.prior);
    solvers::SolverWorkspace workspace;
    std::vector<core::Packet> packets(spec.leads);
    std::vector<std::int32_t> y;
    std::vector<core::DecodedWindow<float>> out(spec.leads);
    for (const RxEvent& event : node.events) {
      if (windows >= kPricedWindows) {
        break;
      }
      if (event.kind == RxEvent::Kind::kProfile) {
        if (core::Packet::parse_into(event.frames.front(), packets[0])) {
          decoder.consume(packets[0], y);
        }
        continue;
      }
      bool ok = event.kind == RxEvent::Kind::kWindow &&
                event.frames.size() == spec.leads;
      for (std::size_t l = 0; ok && l < spec.leads; ++l) {
        ok = core::Packet::parse_into(event.frames[l], packets[l]);
      }
      if (ok) {
        ok = spec.leads > 1
                 ? decoder.decode_group_measurements_into(
                       std::span<const core::Packet>(packets), y)
                 : decoder.decode_measurements_into(packets[0], y);
      }
      if (!ok) {
        decoder.invalidate_prior();
        continue;
      }
      linalg::OpCounterScope scope;
      if (spec.leads > 1) {
        decoder.reconstruct_group_into<float>(
            std::span<const std::int32_t>(y), workspace,
            std::span<core::DecodedWindow<float>>(out));
      } else {
        decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                        workspace, out[0]);
      }
      if (event.slot >= 1) {
        cycles += model.cycles(scope.counts());
        ++windows;
      }
    }
  }
  return windows == 0 ? 0.0 : cycles / static_cast<double>(windows) / 1e6;
}

}  // namespace perfbench
