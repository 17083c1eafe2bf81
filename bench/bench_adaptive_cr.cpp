// EXP-A12 — loss-adaptive CR control: the v1 stream walks the paper's
// CR 30..70 ladder from ARQ feedback (adaptive_cr.hpp), with every switch
// carried in-band as a kProfile frame plus forced keyframe. The bench
// sweeps channel loss through the full profile-driven pipeline and checks
// the controller's direction of travel, not host speed (single-core CI
// boxes make timing meaningless):
//
//  * adaptive disabled      -> zero switches, the stream stays at CR 50;
//  * clean link             -> the policy steps down to the fidelity end
//                              (ladder bottom, CR 30) and stays there;
//  * heavy loss + ARQ NACKs -> sustained NACK pressure holds the CR at or
//                              above the clean-link endpoint (airtime
//                              relief), never below it;
//  * every row              -> the display cadence never drops a window
//                              (displayed + overruns == input) and each
//                              realised switch equals an applied profile.
//
// Exit code is non-zero if any of those invariants fails.
//
// The scenarios run paced (PipelineConfig::pace), so the sender keeps a
// scaled copy of the 2 s window cadence the controller is specified for.
// Unpaced, the sender can close its last epoch before that epoch's NACKs
// return, which leaves the lossy rows' last NACK rate, final CR and
// concealment count to thread timing.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/stream_profile.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/util/table.hpp"
#include "csecg/wbsn/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace csecg;
  std::cout << "EXP-A12: adaptive CR — NACK-driven ladder walk over the "
               "v1 pipeline\n\n";

  // The controller needs epochs' worth of windows to move: a long single
  // record rather than the shared 30 s corpus.
  ecg::DatabaseConfig db_config;
  db_config.record_count = 1;
  db_config.duration_s =
      static_cast<double>(bench::env_size("CSECG_BENCH_ADAPT_SECONDS", 192));
  const ecg::SyntheticDatabase db(db_config);
  const auto& record = db.mote(0);

  wbsn::AdaptiveCrConfig adaptive;
  adaptive.enabled = true;
  adaptive.epoch_windows = 8;
  adaptive.hysteresis_epochs = 2;
  const std::size_t start_rung = adaptive.start_rung;
  constexpr double kPace = 0.02;  // 40 ms per 2 s window

  struct Scenario {
    const char* label;
    bool enabled;
    double loss;
  };
  const Scenario scenarios[] = {
      {"disabled", false, 0.0},
      {"clean", true, 0.0},
      {"loss 10%", true, 0.10},
      {"loss 30%", true, 0.30},
  };

  util::Table table({"scenario", "windows", "epochs", "up", "down",
                     "final CR", "nack/window", "concealed", "PRD (%)"});
  table.set_title("Adaptive CR ladder walk (start CR 50, epoch 8 windows)");
  bench::JsonReport json(
      "adaptive_cr",
      {"scenario", "loss", "windows", "epochs", "switches_up",
       "switches_down", "final_cr", "last_nack_rate", "windows_concealed",
       "mean_prd", "profiles_applied"});

  int exit_code = 0;
  double clean_final_cr = 0.0;
  for (const auto& scenario : scenarios) {
    wbsn::PipelineConfig pipe;
    pipe.pace = kPace;
    pipe.link.loss_rate = scenario.loss;
    pipe.link.mean_burst_frames = 2.0;
    pipe.adaptive = adaptive;
    pipe.adaptive.enabled = scenario.enabled;
    wbsn::RealTimePipeline pipeline(core::profile_for_cr(50.0), pipe);
    const auto report = pipeline.run(record);

    const std::size_t rung = start_rung + report.adaptive.switches_up -
                             report.adaptive.switches_down;
    const double final_cr = adaptive.ladder[rung];
    table.add_row(
        {scenario.label, std::to_string(report.windows_input),
         std::to_string(report.adaptive.epochs),
         std::to_string(report.adaptive.switches_up),
         std::to_string(report.adaptive.switches_down),
         util::format_double(final_cr, 0),
         util::format_double(report.adaptive.last_nack_rate, 2),
         std::to_string(report.windows_concealed),
         util::format_double(report.mean_prd, 2)});
    json.add_row({scenario.label, util::format_double(scenario.loss, 2),
                  std::to_string(report.windows_input),
                  std::to_string(report.adaptive.epochs),
                  std::to_string(report.adaptive.switches_up),
                  std::to_string(report.adaptive.switches_down),
                  util::format_double(final_cr, 0),
                  util::format_double(report.adaptive.last_nack_rate, 3),
                  std::to_string(report.windows_concealed),
                  util::format_double(report.mean_prd, 2),
                  std::to_string(report.profiles_applied)});

    // Invariants (see the header comment).
    bool ok = report.windows_displayed + report.display_overruns ==
              report.windows_input;
    // On a clean link the applied-profile count is exact: the session
    // bootstrap plus one per realised switch. Loss adds ARQ-driven
    // re-announcements on top, so lossy rows only bound it from below.
    const std::size_t switches =
        report.adaptive.switches_up + report.adaptive.switches_down;
    ok = ok && (scenario.loss == 0.0
                    ? report.profiles_applied == 1 + switches
                    : report.profiles_applied >= 1 + switches);
    if (!scenario.enabled) {
      ok = ok && report.adaptive.switches_up == 0 &&
           report.adaptive.switches_down == 0;
    } else if (scenario.loss == 0.0) {
      ok = ok && final_cr == adaptive.ladder.front() &&
           report.adaptive.switches_up == 0;
      clean_final_cr = final_cr;
    } else if (scenario.loss >= 0.30) {
      ok = ok && final_cr >= clean_final_cr &&
           report.adaptive.last_nack_rate > 0.0;
    }
    if (!ok) {
      std::cout << "FAIL: invariant violated in scenario '"
                << scenario.label << "'\n";
      exit_code = 1;
    }
  }

  table.print(std::cout);
  std::cout << "\ninvariants: " << (exit_code == 0 ? "PASS" : "FAIL")
            << " (disabled never switches; clean link settles at CR "
            << util::format_double(adaptive.ladder.front(), 0)
            << "; loss holds the CR at or above that; no dropped "
               "display windows)\n";

  const auto json_path = bench::json_output_path(argc, argv);
  if (!json_path.empty() && json.write(json_path)) {
    std::cout << "JSON artefact: " << json_path << "\n";
  }
  return exit_code;
}
