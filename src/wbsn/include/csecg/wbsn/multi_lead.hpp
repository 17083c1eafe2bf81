#ifndef CSECG_WBSN_MULTI_LEAD_HPP
#define CSECG_WBSN_MULTI_LEAD_HPP

/// \file multi_lead.hpp
/// Multi-lead monitoring: several ECG leads stream to a single
/// coordinator, which decodes all leads within the shared 2-second
/// real-time budget. This answers the capacity question behind §V's
/// "less than 30 % CPU": how many leads fit one phone.
///
/// Two wirings, selected by MultiLeadMode:
///
///  * kIndependent — the classic EXP-A9 topology: one StreamSession per
///    lead (lead-distinct sensing seeds, so simultaneous corruption
///    cannot alias across leads), one decoder per lead, purely additive
///    decode cost.
///  * kJointGroup — the lead-group topology: one StreamProfile-v2
///    session carries all leads under a shared sensing seed, and the
///    coordinator recovers the group jointly (one l2,1 solve on panel
///    kernels, one operator traversal per iteration regardless of L).
///    This is the sub-additive operating point EXP-A15 measures.
///
/// Each stream is received by one Coordinator (coordinator.hpp), fed its
/// link's frames on the calling thread with the ARQ off (no feedback is
/// relayed, so nothing is retransmitted): a decoded window is scored in
/// the send call that carried it, a lost one is not scored (a group
/// loses every lead). Each session's first frame is the v1/v2 kProfile
/// announcement, which the coordinator applies like any receiver —
/// nothing else crosses but receiver-side solver policy (lambda,
/// backend, prior), which is not part of the wire contract. The
/// coordinators decode through a counting decorator, so
/// coordinator_cpu_usage is Cortex-A8 model time.

#include <cstdint>
#include <vector>

#include "csecg/core/decoder.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/wbsn/coordinator.hpp"
#include "csecg/wbsn/link.hpp"

namespace csecg::wbsn {

enum class MultiLeadMode : std::uint8_t {
  kIndependent = 0,  ///< one stream + one solve per lead
  kJointGroup = 1,   ///< one lead-group stream, joint group-sparse solve
};

struct MultiLeadReport {
  std::size_t leads = 0;
  std::size_t windows_per_lead = 0;
  /// Aggregate coordinator busy time per 2 s window period (all leads).
  double coordinator_cpu_usage = 0.0;
  /// True when the coordinator's total decode time fits the paper's
  /// budget of 1 s of compute per 2 s of ECG.
  bool real_time_feasible = false;
  double mean_prd = 0.0;       ///< across all leads
  /// Mean FISTA iterations per decode unit: per window (independent) or
  /// per group solve (joint — the group iterates as one problem).
  double mean_decode_iterations = 0.0;
  double link_airtime_s = 0.0; ///< total airtime, all leads
  std::vector<double> per_lead_prd;
  /// Mote CPU per lead. Independent mode: each lead's own node. Joint
  /// mode: the single group mote's usage split evenly across leads.
  std::vector<double> per_lead_node_cpu;
};

/// Runs one record per lead (all must share length and rate) through the
/// selected topology into one phone (one Coordinator per stream, all on
/// the calling thread). The wire codebook is the
/// profile-resolvable default book (id 0) — the in-band bootstrap
/// contract; \p config supplies geometry, seed and receiver-side solver
/// policy.
MultiLeadReport run_multi_lead(
    const std::vector<const ecg::Record*>& leads,
    const core::DecoderConfig& config, const LinkConfig& link_config = {},
    MultiLeadMode mode = MultiLeadMode::kIndependent);

}  // namespace csecg::wbsn

#endif  // CSECG_WBSN_MULTI_LEAD_HPP
