#include "csecg/wbsn/multi_lead.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "csecg/core/codebook.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/error.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace csecg::wbsn {

namespace {

/// The wire contract of \p config as an announceable v1/v2 profile.
core::StreamProfile bootstrap_profile(const core::DecoderConfig& config) {
  const auto profile = core::profile_from(config);
  CSECG_CHECK(profile.has_value(),
              "multi-lead config is not announceable as a stream profile");
  return *profile;
}

double window_prd(const ecg::Record& record, std::size_t offset,
                  std::span<const float> reconstructed, std::size_t n,
                  std::vector<double>& original_scratch,
                  std::vector<double>& recon_scratch) {
  for (std::size_t i = 0; i < n; ++i) {
    original_scratch[i] = static_cast<double>(record.samples[offset + i]);
    recon_scratch[i] = static_cast<double>(reconstructed[i]);
  }
  return ecg::prd(original_scratch, recon_scratch);
}

}  // namespace

MultiLeadReport run_multi_lead(const std::vector<const ecg::Record*>& leads,
                               const core::DecoderConfig& config,
                               const LinkConfig& link_config,
                               MultiLeadMode mode) {
  CSECG_CHECK(!leads.empty(), "need at least one lead");
  CSECG_CHECK(leads.size() <= core::StreamProfile::kMaxLeads,
              "lead count exceeds the wire lead-tag range");
  const std::size_t n = config.cs.window;
  const std::size_t length = leads.front()->samples.size();
  for (const auto* lead : leads) {
    CSECG_CHECK(lead != nullptr, "null lead");
    CSECG_CHECK(lead->samples.size() == length,
                "all leads must share the record length");
  }
  const std::size_t windows = length / n;
  CSECG_CHECK(windows > 0, "records shorter than one window");
  const std::size_t lead_count = leads.size();
  // Joint: one lead-group session, one sensing seed, one joint solve per
  // group window. Independent: one single-lead session per lead, with
  // lead-distinct sensing seeds so simultaneous corruption cannot alias
  // across leads. Stream s carries leads s .. s + stream_leads - 1.
  const bool joint = mode == MultiLeadMode::kJointGroup;
  const std::size_t streams = joint ? 1 : lead_count;
  const std::size_t stream_leads = joint ? lead_count : 1;

  MultiLeadReport report;
  report.leads = lead_count;
  report.windows_per_lead = windows;
  report.per_lead_prd.assign(lead_count, 0.0);
  report.per_lead_node_cpu.assign(lead_count, 0.0);

  StreamSessionConfig session_config;
  session_config.link = link_config;
  // No feedback is relayed, so a receiver ARQ could repair nothing: with
  // it off every frame is received as it arrives, and a decoded window is
  // delivered inside the send call that carried it.
  const ArqConfig receiver_arq{.enabled = false};
  // Every receiver decodes through one counting decorator over the
  // configured kernels, so each solve is priced on the Cortex-A8 model.
  const linalg::CountingBackend counting(config.backend != nullptr
                                             ? *config.backend
                                             : linalg::default_backend());
  const double window_period_s =
      static_cast<double>(n) / leads.front()->sample_rate_hz;
  std::vector<double> original(n);
  std::vector<double> recon(n);
  std::vector<std::size_t> decoded(lead_count, 0);
  std::size_t sending = windows;  // the window in flight; none outside

  std::vector<std::unique_ptr<StreamSession>> sessions;
  std::vector<std::unique_ptr<Coordinator>> receivers;
  for (std::size_t s = 0; s < streams; ++s) {
    core::DecoderConfig stream_config = config;
    stream_config.cs.seed = config.cs.seed + s * 7919;  // lead-distinct Phi
    stream_config.cs.leads = stream_leads;
    sessions.push_back(std::make_unique<StreamSession>(
        bootstrap_profile(stream_config), session_config));
    receivers.push_back(std::make_unique<Coordinator>(
        stream_config, core::default_difference_codebook(), receiver_arq));
    receivers.back()->decoder().set_backend(counting);
    // Score every decoded window against the source window being sent,
    // lead by lead; concealed windows are never scored as clean.
    Coordinator::Wiring wiring;
    wiring.announced = true;
    wiring.deliver = [&, s](const FleetWindow& window) {
      if (window.concealed) {
        return;
      }
      CSECG_CHECK(sending < windows, "decoded window outside its send call");
      const std::size_t lead = s + window.lead;
      ++decoded[lead];
      report.per_lead_prd[lead] += window_prd(
          *leads[lead], sending * n, window.samples, n, original, recon);
    };
    receivers.back()->wire(std::move(wiring));
  }

  // Frames go straight from each session's link into its receiver on
  // this thread.
  solvers::SolverWorkspace workspace;
  std::vector<std::int16_t> flat(stream_leads * n);
  for (std::size_t w = 0; w < windows; ++w) {
    sending = w;
    for (std::size_t s = 0; s < streams; ++s) {
      for (std::size_t l = 0; l < stream_leads; ++l) {
        std::copy_n(leads[s + l]->samples.begin() +
                        static_cast<std::ptrdiff_t>(w * n),
                    n, flat.begin() + static_cast<std::ptrdiff_t>(l * n));
      }
      Coordinator& receiver = *receivers[s];
      const auto sink = [&](std::vector<std::uint8_t> frame) {
        receiver.receive(std::move(frame), workspace,
                         /*conceal_only=*/false);
      };
      sessions[s]->send_window(flat, sink);
    }
  }
  sending = windows;

  double total_decode_s = 0.0;
  double iterations_total = 0.0;
  std::size_t units_total = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    receivers[s]->finish(workspace, /*conceal_only=*/false);
    const CoordinatorStats& stats = receivers[s]->stats();
    total_decode_s += stats.modelled_seconds_total;
    iterations_total += stats.iterations_total;
    units_total += stats.windows_reconstructed;
    report.link_airtime_s += sessions[s]->link().stats().airtime_s;
    // A group mote's usage splits evenly across its leads.
    const double node_cpu = sessions[s]->node().cpu_usage(window_period_s) /
                            static_cast<double>(stream_leads);
    for (std::size_t l = 0; l < stream_leads; ++l) {
      report.per_lead_node_cpu[s + l] = node_cpu;
    }
  }
  double prd_total = 0.0;
  for (std::size_t l = 0; l < lead_count; ++l) {
    report.per_lead_prd[l] /=
        static_cast<double>(std::max<std::size_t>(1, decoded[l]));
    prd_total += report.per_lead_prd[l];
  }
  report.mean_decode_iterations =
      units_total == 0 ? 0.0
                       : iterations_total / static_cast<double>(units_total);
  report.coordinator_cpu_usage =
      total_decode_s / (static_cast<double>(windows) * window_period_s);
  // Real-time: all leads must decode within 1 s of compute per 2 s
  // window (the §V budget).
  report.real_time_feasible =
      total_decode_s / static_cast<double>(windows) <=
      window_period_s / 2.0;
  report.mean_prd = prd_total / static_cast<double>(lead_count);
  return report;
}

}  // namespace csecg::wbsn
