// csecg_tool — command-line front end for the whole stack.
//
//   csecg_tool generate --out rec.csecg [--seconds 30] [--bpm 70]
//                       [--pvc 0.1] [--seed 1] [--rate 256]
//   csecg_tool info     --in rec.csecg
//   csecg_tool csv      --in rec.csecg --out rec.csv
//   csecg_tool encode   --in rec.csecg --out session.csecgs [--cr 50]
//                       [--d 12] [--shift 0] [--seed 42]
//   csecg_tool decode   --in session.csecgs --out recon.csecg
//                       [--backend native] [--warm] [--weighted]
//   csecg_tool metrics  --a rec.csecg --b recon.csecg
//   csecg_tool metrics  [--in rec.csecg] [--seconds 30] [--seed 1]
//                       [--loss 0.1] [--burst 4] [--ber 1e-5] [--retries 3]
//                       [--keyframe 64] [--conceal hold|interp]
//                       [--backend native] [--json dump.jsonl]
//   csecg_tool metrics  --trace dump.jsonl [--prom out.prom]
//   csecg_tool stream   --in rec.csecg [--cr 50] [--leads 1] [--adapt 1]
//                       [--loss 0.1] [--burst 4] [--ber 1e-5] [--retries 3]
//                       [--keyframe 64] [--conceal hold|interp]
//                       [--backend native]
//   csecg_tool fleet    [--nodes 8] [--workers 4] [--seconds 30]
//                       [--cr 30,50,70] [--leads 1] [--adapt 1] [--queue 64]
//                       [--loss 0.0] [--burst 1] [--ber 0]
//                       [--keyframe 64] [--rate 256] [--batch 1]
//                       [--backend native] [--warm] [--weighted]
//                       [--json dump.jsonl]
//   csecg_tool gateway  [--soak] [--nodes 10000] [--shards 2]
//                       [--workers 1] [--queue 256] [--batch 4]
//                       [--streams 6] [--records 3] [--cr 50,40,30]
//                       [--leads 1]
//                       [--keyframe 16] [--windows 32] [--clusters 64]
//                       [--duty-on 4] [--duty-period 2048]
//                       [--warmup 96] [--steady 192] [--seed 2011]
//                       [--force-shed 1] [--backend native]
//                       [--warm] [--weighted]
//                       [--json dump.jsonl] [--timeline tl.jsonl]
//                       [--timeline-every 16] [--flight fl.jsonl]
//                       [--prom out.prom]
//                       (defaults shown are --soak; plain gateway runs a
//                       lighter demo: 1000 nodes, duty period 512,
//                       queue 64, warmup/steady 64)
//
// Decoding commands accept `--backend reference|native` (default
// native): which kernel set the FISTA reconstruction runs through.
// `fleet --batch k` drains up to k frames per worker dispatch and sweeps
// them through the batched solver in one kernel invocation.
// `stream`/`fleet`/`gateway` accept `--leads L` (1..8, default 1): L > 1
// switches the session to a StreamProfile-v2 lead group — all L leads
// share one sensing seed and one wire sequence per window, and the
// receiver recovers the group jointly (one l2,1 solve on panel kernels,
// conceal-/shed-whole-group). `--cr` lists are validated strictly:
// empty or non-numeric elements are a usage error.
// `decode`/`fleet`/`gateway` also accept the prior-aware policy flags:
// `--warm` (warm-start FISTA from the previous window's solution, with
// adaptive restart and support-aware tolerance) and `--weighted` (the
// EXP-A8 weighted l1 that de-emphasises the dense approximation band).
//
// `encode` trains a codebook on the input record itself (self-contained
// sessions); `decode` reads everything it needs from the session file.
// `stream` pushes the record through the real-time WBSN pipeline over a
// Gilbert–Elliott burst channel with the NACK-driven ARQ and prints the
// robustness counters; the session is profile-driven (v1): geometry and
// CR travel in-band and --adapt 1 turns on loss-adaptive CR. `metrics`
// has three modes: record-vs-record quality comparison (--a/--b), an
// instrumented replay that streams a record (loaded or synthesised)
// through the observed pipeline and prints the telemetry report
// (optionally dumping it as JSONL with --json), and offline re-rendering
// of such a dump (--trace). `fleet` multiplexes N synthetic sensor nodes
// (heterogeneous CRs via a --cr comma list) onto the FleetCoordinator's
// decode worker pool and prints per-node and fleet-wide latency/quality
// statistics.
//
// `gateway` runs the sharded GatewayService under the deterministic
// duty-cycled traffic model and prints the per-shard + global SLO table
// (including end-to-end offer→delivery latency percentiles). Plain
// `gateway` is a short demo; `--soak` is the CRC-validated soak: every
// delivered reconstruction is checksummed against a golden reference
// decode, every accounting identity is asserted, and the measured
// steady phase must complete with zero heap allocations (counted by a
// global operator-new hook) — the tool exits non-zero if any gate
// fails. The live telemetry plane streams alongside: `--timeline`
// writes epoch-diff rate/gauge/percentile JSONL sampled every
// `--timeline-every` ticks while the service runs, `--flight` collects
// anomaly-triggered flight-recorder dumps (tier escalations, deadline
// misses, CRC mismatches), and `--prom` renders the final merged
// registry as Prometheus text exposition. `metrics --trace dump.jsonl
// --prom out.prom` re-renders a JSONL dump the same way offline.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/codebook.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/residual.hpp"
#include "csecg/ecg/database.hpp"
#include "csecg/ecg/ecgsyn.hpp"
#include "csecg/ecg/noise.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/ecg/qrs_detector.hpp"
#include "csecg/io/record_io.hpp"
#include "csecg/io/session_io.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/obs/export.hpp"
#include "csecg/obs/obs.hpp"
#include "csecg/util/alloc_probe.hpp"
#include "csecg/wbsn/fleet.hpp"
#include "csecg/wbsn/gateway.hpp"
#include "csecg/wbsn/link.hpp"
#include "csecg/wbsn/multi_lead.hpp"
#include "csecg/wbsn/traffic_gen.hpp"
#include "csecg/wbsn/pipeline.hpp"
#include "csecg/wbsn/stream_session.hpp"

namespace {

using namespace csecg;
using util::g_allocations;
using util::g_count_allocations;

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag value, got %s\n", argv[i]);
      std::exit(2);
    }
    // A flag followed by another flag (or by nothing) is a boolean
    // switch: `gateway --soak` == `gateway --soak 1`.
    const bool is_switch =
        i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0;
    args.insert_or_assign(std::string(argv[i] + 2),
                          std::string(is_switch ? "1" : argv[i + 1]));
    i += is_switch ? 1 : 2;
  }
  return args;
}

std::string need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) {
    std::fprintf(stderr, "missing required --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double get_double(const Args& args, const std::string& key,
                  double fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::stod(it->second);
}

/// `--backend reference|native` picks the kernel set the decoders run
/// through. Default native: the host's widest correct SIMD (falls back
/// to the reference loops when compiled out — the printed name says
/// which you got). Always a plain backend; the pipeline's coordinator
/// layers its own counting decorator when it prices the Cortex-A8 model.
const linalg::Backend& parse_backend(const Args& args) {
  const auto it = args.find("backend");
  const std::string name = it == args.end() ? "native" : it->second;
  const linalg::Backend* backend = linalg::backend_by_name(name);
  if (backend == nullptr) {
    std::fprintf(stderr, "--backend must be reference|native\n");
    std::exit(2);
  }
  return *backend;
}

/// Receiver-side prior policy for `decode`/`fleet`/`gateway`:
/// `--warm` turns on warm starts (+ adaptive restart + support-aware
/// tolerance), `--weighted` turns on the EXP-A8 weighted l1.
core::PriorPolicy parse_prior(const Args& args) {
  core::PriorPolicy prior;
  prior.warm_start = get_double(args, "warm", 0.0) != 0.0;
  prior.weighted_l1 = get_double(args, "weighted", 0.0) != 0.0;
  if (prior.warm_start) {
    prior.support_tolerance = 1e-4;
  }
  return prior;
}

/// `--cr` as a strict comma list of positive numbers (`30,50,70`).
/// Empty elements and trailing garbage ("", "50x", "30,,70") are usage
/// errors — a typo'd CR mix must not silently run a different
/// experiment.
std::vector<double> parse_cr_list(const Args& args, const char* fallback) {
  const auto it = args.find("cr");
  const std::string list = it == args.end() ? fallback : it->second;
  std::vector<double> values;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string element = list.substr(pos, comma - pos);
    char* end = nullptr;
    const double value =
        element.empty() ? 0.0 : std::strtod(element.c_str(), &end);
    if (element.empty() || end != element.c_str() + element.size() ||
        !std::isfinite(value) || value <= 0.0) {
      std::fprintf(stderr,
                   "--cr expects a comma list of positive numbers "
                   "(e.g. 30,50,70); got \"%s\"\n",
                   list.c_str());
      std::exit(2);
    }
    values.push_back(value);
    pos = comma + 1;
  }
  return values;
}

/// `--leads L`: lead-group width for stream/fleet/gateway. 1 keeps the
/// classic single-lead v1 wire; 2..kMaxLeads switch the session to
/// StreamProfile-v2 lead groups with joint group-sparse recovery.
std::size_t parse_leads(const Args& args) {
  const double leads = get_double(args, "leads", 1.0);
  if (!(leads >= 1.0) ||
      leads > static_cast<double>(core::StreamProfile::kMaxLeads) ||
      leads != std::floor(leads)) {
    std::fprintf(stderr, "--leads must be an integer in [1, %zu]\n",
                 core::StreamProfile::kMaxLeads);
    std::exit(2);
  }
  return static_cast<std::size_t>(leads);
}

int cmd_generate(const Args& args) {
  ecg::EcgSynConfig gen;
  gen.sample_rate_hz = get_double(args, "rate", 256.0);
  gen.duration_s = get_double(args, "seconds", 30.0);
  gen.mean_heart_rate_bpm = get_double(args, "bpm", 70.0);
  gen.pvc_probability = get_double(args, "pvc", 0.0);
  gen.apc_probability = get_double(args, "apc", 0.0);
  gen.seed = static_cast<std::uint64_t>(get_double(args, "seed", 1.0));
  const auto generated = ecg::generate_ecg(gen);

  ecg::NoiseConfig noise;
  noise.seed = gen.seed ^ 0xabcdu;
  auto samples_mv = generated.samples_mv;
  ecg::add_noise(samples_mv, gen.sample_rate_hz, noise);

  ecg::Record record;
  record.id = "generated-" + std::to_string(gen.seed);
  record.sample_rate_hz = gen.sample_rate_hz;
  record.samples = ecg::AdcModel().quantize(samples_mv);
  record.beat_onsets = generated.beat_onsets;
  record.beat_classes = generated.beat_classes;

  const auto out = need(args, "out");
  if (!io::save_record(record, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %.0f s at %.0f Hz, %zu beats\n", out.c_str(),
              record.duration_s(), record.sample_rate_hz,
              record.beat_onsets.size());
  return 0;
}

int cmd_info(const Args& args) {
  const auto record = io::load_record(need(args, "in"));
  if (!record) {
    std::fprintf(stderr, "cannot read record\n");
    return 1;
  }
  std::printf("id           : %s\n", record->id.c_str());
  std::printf("sample rate  : %.3f Hz\n", record->sample_rate_hz);
  std::printf("samples      : %zu (%.1f s)\n", record->samples.size(),
              record->duration_s());
  std::printf("beats        : %zu annotated\n", record->beat_onsets.size());
  std::size_t pvc = 0;
  std::size_t apc = 0;
  for (const auto c : record->beat_classes) {
    pvc += c == ecg::BeatClass::kPvc;
    apc += c == ecg::BeatClass::kApc;
  }
  std::printf("ectopics     : %zu PVC, %zu APC\n", pvc, apc);
  return 0;
}

int cmd_csv(const Args& args) {
  const auto record = io::load_record(need(args, "in"));
  if (!record) {
    std::fprintf(stderr, "cannot read record\n");
    return 1;
  }
  const auto out = need(args, "out");
  if (!io::export_csv(*record, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_encode(const Args& args) {
  const auto record = io::load_record(need(args, "in"));
  if (!record) {
    std::fprintf(stderr, "cannot read record\n");
    return 1;
  }
  core::EncoderConfig config;
  config.measurements = core::measurements_for_cr(
      config.window, get_double(args, "cr", 50.0));
  config.d = static_cast<std::size_t>(get_double(args, "d", 12.0));
  config.seed = static_cast<std::uint64_t>(get_double(args, "seed", 42.0));
  config.measurement_shift =
      static_cast<unsigned>(get_double(args, "shift", 0.0));

  // Self-contained session: train the codebook on this record's own
  // difference statistics.
  std::vector<std::uint64_t> histogram(core::kDiffAlphabetSize, 0);
  {
    core::SensingMatrixConfig sc;
    sc.rows = config.measurements;
    sc.cols = config.window;
    sc.d = config.d;
    sc.seed = config.seed;
    const core::SensingMatrix sensing(sc);
    std::vector<std::int32_t> current(config.measurements);
    std::vector<std::int32_t> previous(config.measurements, 0);
    bool have = false;
    const std::int32_t scale = core::q15_inverse_sqrt(config.d);
    for (std::size_t off = 0; off + config.window <= record->samples.size();
         off += config.window) {
      core::project_window_q15(
          sensing.sparse(), scale,
          std::span<const std::int16_t>(record->samples.data() + off,
                                        config.window),
          std::span<std::int32_t>(current));
      if (config.measurement_shift > 0) {
        const std::int32_t half = std::int32_t{1}
                                  << (config.measurement_shift - 1);
        for (auto& v : current) {
          v = (v + half) >> config.measurement_shift;
        }
      }
      if (have) {
        core::accumulate_difference_histogram(current, previous, histogram);
      }
      previous.swap(current);
      have = true;
    }
  }
  const auto codebook = coding::HuffmanCodebook::from_frequencies(histogram);

  io::Session session;
  session.config = config;
  session.sample_rate_hz = record->sample_rate_hz;
  session.codebook_blob = codebook.serialize();
  core::Encoder encoder(config, codebook);
  std::size_t raw_bits = 0;
  std::size_t wire_bits = 0;
  for (std::size_t off = 0; off + config.window <= record->samples.size();
       off += config.window) {
    const auto packet = encoder.encode_window(std::span<const std::int16_t>(
        record->samples.data() + off, config.window));
    wire_bits += packet.wire_bits();
    raw_bits += config.window * 11;
    session.frames.push_back(packet.serialize());
  }
  const auto out = need(args, "out");
  if (!io::save_session(session, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu packets, CR %.1f %%\n", out.c_str(),
              session.frames.size(),
              ecg::compression_ratio(raw_bits, wire_bits));
  return 0;
}

int cmd_decode(const Args& args) {
  const auto session = io::load_session(need(args, "in"));
  if (!session) {
    std::fprintf(stderr, "cannot read session\n");
    return 1;
  }
  const auto codebook = session->codebook();
  if (!codebook) {
    std::fprintf(stderr, "session codebook is corrupt\n");
    return 1;
  }
  core::DecoderConfig config;
  config.cs = session->config;
  config.backend = &parse_backend(args);
  config.prior = parse_prior(args);
  core::Decoder decoder(config, *codebook);

  ecg::Record out_record;
  out_record.id = "reconstruction";
  out_record.sample_rate_hz = session->sample_rate_hz;
  std::size_t decoded = 0;
  for (const auto& frame : session->frames) {
    const auto packet = core::Packet::parse(frame);
    if (!packet) {
      continue;
    }
    const auto window = decoder.decode<float>(*packet);
    if (!window) {
      continue;
    }
    for (const auto v : window->samples) {
      const double clamped = std::max(-1024.0f, std::min(1023.0f, v));
      out_record.samples.push_back(
          static_cast<std::int16_t>(std::lround(clamped)));
    }
    ++decoded;
  }
  const auto out = need(args, "out");
  if (!io::save_record(out_record, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("decoded %zu/%zu packets into %s (%zu samples, %s kernels)\n",
              decoded, session->frames.size(), out.c_str(),
              out_record.samples.size(), decoder.backend().name());
  return 0;
}

/// Shared pipeline knobs for `stream` and the instrumented `metrics`
/// replay: channel impairments, ARQ policy and concealment.
wbsn::PipelineConfig parse_pipeline_args(const Args& args) {
  wbsn::PipelineConfig pipe;
  pipe.link.loss_rate = get_double(args, "loss", 0.0);
  pipe.link.mean_burst_frames =
      std::max(1.0, get_double(args, "burst", 1.0));
  pipe.link.bit_error_rate = get_double(args, "ber", 0.0);
  pipe.link.seed =
      static_cast<std::uint64_t>(get_double(args, "seed", 1.0));
  pipe.arq.max_retries =
      static_cast<std::size_t>(get_double(args, "retries", 3.0));
  pipe.arq.enabled = pipe.arq.max_retries > 0;
  const auto it = args.find("conceal");
  if (it != args.end() && it->second == "interp") {
    pipe.concealment = wbsn::ConcealmentStrategy::kInterpolate;
  } else if (it != args.end() && it->second != "hold") {
    std::fprintf(stderr, "--conceal must be hold or interp\n");
    std::exit(2);
  }
  return pipe;
}

/// `stream --leads L` (L > 1): the record becomes an L-lead group of
/// electrode-gain replicas (lead 0 verbatim, later leads attenuated)
/// streamed as one StreamProfile-v2 session and recovered jointly — a
/// joint-recovery demo on arbitrary input, not a physiological lead
/// model (`fleet --leads` synthesises correlated morphology instead).
int stream_group(const Args& args, const ecg::Record& record,
                 std::size_t leads) {
  std::vector<ecg::Record> replicas(leads);
  std::vector<const ecg::Record*> group;
  group.reserve(leads);
  for (std::size_t l = 0; l < leads; ++l) {
    replicas[l] = record;
    const double gain = 1.0 / (1.0 + 0.35 * static_cast<double>(l));
    for (auto& sample : replicas[l].samples) {
      sample = static_cast<std::int16_t>(
          std::lround(static_cast<double>(sample) * gain));
    }
    group.push_back(&replicas[l]);
  }

  core::DecoderConfig config;
  config.cs.measurements = core::measurements_for_cr(
      config.cs.window, get_double(args, "cr", 50.0));
  config.backend = &parse_backend(args);
  const wbsn::PipelineConfig pipe = parse_pipeline_args(args);
  const auto report = wbsn::run_multi_lead(
      group, config, pipe.link, wbsn::MultiLeadMode::kJointGroup);

  std::printf("lead group              : %zu leads x %zu windows "
              "(joint l2,1 recovery, shared Phi)\n",
              report.leads, report.windows_per_lead);
  for (std::size_t l = 0; l < report.per_lead_prd.size(); ++l) {
    std::printf("lead %zu PRD              : %.2f %%\n", l,
                report.per_lead_prd[l]);
  }
  std::printf("mean PRD                : %.2f %%\n", report.mean_prd);
  std::printf("decode backend          : %s\n", config.backend->name());
  std::printf("link airtime            : %.2f s (one ARQ/CRC stream)\n",
              report.link_airtime_s);
  std::printf("coordinator CPU         : %.1f %% (%s)\n",
              report.coordinator_cpu_usage * 100.0,
              report.real_time_feasible ? "real-time" : "NOT real-time");
  return 0;
}

int cmd_stream(const Args& args) {
  const auto record = io::load_record(need(args, "in"));
  if (!record) {
    std::fprintf(stderr, "cannot read record\n");
    return 1;
  }
  const std::size_t leads = parse_leads(args);
  if (leads > 1) {
    return stream_group(args, *record, leads);
  }
  // v1 session: the CR, keyframe cadence and codec geometry travel as a
  // StreamProfile announced in-band; the pipeline's coordinator
  // bootstraps entirely from the received kProfile frame.
  core::StreamProfile profile =
      core::profile_for_cr(get_double(args, "cr", 50.0));
  profile.keyframe_interval =
      static_cast<std::uint16_t>(get_double(args, "keyframe", 64.0));

  wbsn::PipelineConfig pipe = parse_pipeline_args(args);
  pipe.adaptive.enabled = get_double(args, "adapt", 0.0) != 0.0;
  pipe.backend = &parse_backend(args);

  wbsn::RealTimePipeline pipeline(profile, pipe);
  const auto report = pipeline.run(*record);

  std::printf("windows input/displayed : %zu / %zu (%zu overruns)\n",
              report.windows_input, report.windows_displayed,
              report.display_overruns);
  std::printf("frames sent/lost/corrupt: %zu / %zu / %zu\n",
              report.link.frames_sent, report.link.frames_lost,
              report.link.frames_corrupted);
  std::printf("loss bursts             : %zu\n", report.link.loss_bursts);
  std::printf("CRC rejects             : %zu\n",
              report.windows_corrupt_rejected);
  std::printf("retransmissions         : %zu (%zu keyframes forced)\n",
              report.retransmissions, report.keyframes_forced);
  std::printf("windows recovered       : %zu (mean latency %.1f s)\n",
              report.arq_rx.windows_recovered,
              report.mean_recovery_latency_s);
  std::printf("windows concealed       : %zu\n", report.windows_concealed);
  std::printf("profiles applied        : %zu\n", report.profiles_applied);
  if (pipe.adaptive.enabled) {
    std::printf("adaptive CR             : %zu up / %zu down switches "
                "(last NACK rate %.3f)\n",
                report.adaptive.switches_up, report.adaptive.switches_down,
                report.adaptive.last_nack_rate);
  }
  std::printf("mean PRD (clean windows): %.2f %%\n", report.mean_prd);
  std::printf("decode backend          : %s\n", pipe.backend->name());
  std::printf("node/coordinator CPU    : %.2f %% / %.1f %%\n",
              report.node_cpu_usage * 100.0,
              report.coordinator_cpu_usage * 100.0);
  return 0;
}

/// `fleet`: synthesise N sensor-node streams (each with its own heart
/// rate, ECG seed, CR profile and lossy link) and push them interleaved
/// through the FleetCoordinator's decode worker pool. Each stream is a
/// v1 StreamSession: the node's profile (including a heterogeneous CR
/// from the --cr comma list) travels in-band as a kProfile frame, and
/// --adapt 1 lets each node walk the CR ladder on NACK pressure.
/// Per-node reconstruction quality is scored in the sink, which runs on
/// the worker threads.
int cmd_fleet(const Args& args) {
  const auto node_count =
      static_cast<std::size_t>(get_double(args, "nodes", 8.0));
  const auto workers =
      static_cast<std::size_t>(get_double(args, "workers", 4.0));
  const double seconds = get_double(args, "seconds", 30.0);
  const double rate = get_double(args, "rate", 256.0);
  if (node_count == 0) {
    std::fprintf(stderr, "--nodes must be positive\n");
    return 2;
  }

  // --cr accepts a comma list (e.g. 30,50,70): node i runs entry i mod
  // size, so a mixed-capability fleet needs no per-node flags. The list
  // is validated strictly — garbage elements are a usage error.
  const std::vector<double> crs = parse_cr_list(args, "50");
  const std::size_t leads = parse_leads(args);
  const auto keyframe_interval =
      static_cast<std::uint16_t>(get_double(args, "keyframe", 64.0));
  const bool adapt = get_double(args, "adapt", 0.0) != 0.0;

  const std::size_t n = core::StreamProfile{}.window;
  const double window_period_s = static_cast<double>(n) / rate;

  wbsn::FleetConfig fleet_config;
  fleet_config.workers = std::max<std::size_t>(1, workers);
  fleet_config.queue_depth =
      static_cast<std::size_t>(get_double(args, "queue", 64.0));
  fleet_config.deadline_seconds = window_period_s;
  fleet_config.backend = &parse_backend(args);
  fleet_config.decode_batch =
      static_cast<std::size_t>(get_double(args, "batch", 1.0));
  fleet_config.prior = parse_prior(args);

  // Per-node quality accounting, written by the sink on worker threads.
  // Distinct nodes deliver on distinct accumulators (per-node ordering
  // guarantees no two workers touch the same one concurrently).
  struct NodeScore {
    double prd_sum = 0.0;
    std::size_t scored = 0;
  };
  std::vector<NodeScore> scores(node_count);
  // originals[node][lead]: lead 0 is the classic single-lead stream;
  // --leads L > 1 renders L correlated projections of one beat schedule.
  std::vector<std::vector<std::vector<std::int16_t>>> originals(node_count);

  const auto sink = [&](const wbsn::FleetWindow& window) {
    if (window.concealed || window.samples.size() != n) {
      return;
    }
    const auto& record = originals[window.node_id][window.lead];
    const std::size_t offset = static_cast<std::size_t>(window.sequence) * n;
    if (offset + n > record.size()) {
      return;
    }
    // Thread-local so concurrent workers never share the score scratch.
    thread_local std::vector<double> a;
    thread_local std::vector<double> b;
    a.resize(n);
    b.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<double>(record[offset + i]);
      b[i] = static_cast<double>(window.samples[i]);
    }
    auto& score = scores[window.node_id];
    score.prd_sum += ecg::prd(a, b);
    ++score.scored;
  };

  // Each node's transmit side is one StreamSession (encoder + link + ARQ
  // + announcements). Its on_feedback is thread-safe, so the fleet's
  // worker-thread feedback callback feeds it directly; the submitting
  // thread relays retransmissions via service_feedback (submitting from
  // the callback could deadlock against the fleet's own backpressure).
  std::vector<std::unique_ptr<wbsn::StreamSession>> sessions;
  const auto feedback = [&](std::uint32_t node_id,
                            std::span<const wbsn::FeedbackMessage> messages) {
    sessions[node_id]->on_feedback(messages);
  };

  wbsn::FleetCoordinator fleet(fleet_config, sink, feedback);

  sessions.reserve(node_count);
  wbsn::StreamSessionConfig session_config;
  session_config.link.loss_rate = get_double(args, "loss", 0.0);
  session_config.link.mean_burst_frames =
      std::max(1.0, get_double(args, "burst", 1.0));
  session_config.link.bit_error_rate = get_double(args, "ber", 0.0);
  session_config.adaptive.enabled = adapt;

  for (std::size_t node = 0; node < node_count; ++node) {
    ecg::EcgSynConfig gen;
    gen.sample_rate_hz = rate;
    gen.duration_s = seconds;
    gen.mean_heart_rate_bpm = 60.0 + static_cast<double>(node % 7) * 5.0;
    gen.seed = 1 + static_cast<std::uint64_t>(node);
    // One beat schedule per node, projected per lead — correlated leads
    // sharing morphology, the structure the joint solve exploits.
    // for_lead(0) is the MLII identity, so leads == 1 reproduces the
    // classic generate_ecg stream bit for bit.
    const auto schedule = ecg::generate_beat_schedule(gen);
    originals[node].reserve(leads);
    for (std::size_t l = 0; l < leads; ++l) {
      originals[node].push_back(ecg::AdcModel().quantize(
          ecg::render_ecg(schedule, gen, ecg::LeadProjection::for_lead(l))
              .samples_mv));
    }
    core::StreamProfile profile =
        core::profile_for_cr(crs[node % crs.size()]).with_leads(leads);
    profile.keyframe_interval = keyframe_interval;
    session_config.link.seed = 100 + static_cast<std::uint64_t>(node);
    sessions.push_back(
        std::make_unique<wbsn::StreamSession>(profile, session_config));
    const std::uint32_t id = fleet.add_node(profile);
    if (id != node) {
      std::fprintf(stderr, "unexpected fleet node id\n");
      return 1;
    }
  }

  const auto sink_for = [&](std::size_t node) {
    return [&fleet, node](std::vector<std::uint8_t> frame) {
      fleet.submit(static_cast<std::uint32_t>(node), std::move(frame));
    };
  };

  // Interleave the streams window by window — the arrival pattern a
  // gateway actually sees from N concurrent 2 s senders. Lead groups
  // send all L leads of a window as one unit under a shared sequence.
  const std::size_t windows_per_node = originals[0][0].size() / n;
  std::vector<std::int16_t> flat(leads * n);
  for (std::size_t w = 0; w < windows_per_node; ++w) {
    for (std::size_t node = 0; node < node_count; ++node) {
      for (std::size_t l = 0; l < leads; ++l) {
        std::copy(originals[node][l].begin() +
                      static_cast<std::ptrdiff_t>(w * n),
                  originals[node][l].begin() +
                      static_cast<std::ptrdiff_t>((w + 1) * n),
                  flat.begin() + static_cast<std::ptrdiff_t>(l * n));
      }
      sessions[node]->send_window(flat, sink_for(node));
    }
  }
  // Bounded ARQ drain: answer NACKs until every transmitter goes idle or
  // nothing moves any more (tail losses can never be NACKed).
  for (std::size_t round = 0; round < 500; ++round) {
    bool any_pending = false;
    for (std::size_t node = 0; node < node_count; ++node) {
      sessions[node]->service_feedback(sink_for(node));
      any_pending = any_pending || !sessions[node]->idle();
    }
    if (!any_pending) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const auto report = fleet.finish();

  std::printf("fleet                   : %zu nodes x %zu workers, "
              "queue %zu, %s kernels (batch %zu)%s\n",
              node_count, fleet_config.workers, fleet_config.queue_depth,
              fleet_config.backend->name(),
              std::max<std::size_t>(1, fleet_config.decode_batch),
              adapt ? ", adaptive CR" : "");
  if (leads > 1) {
    std::printf("lead groups             : %zu correlated leads per node, "
                "joint group recovery\n",
                leads);
  }
  std::printf("node   CR  windows concealed  p50 ms  p95 ms  p99 ms"
              "  mean PRD\n");
  for (const auto& stats : report.nodes) {
    const auto& score = scores[stats.node_id];
    const double mean_prd =
        score.scored == 0 ? 0.0
                          : score.prd_sum / static_cast<double>(score.scored);
    std::printf("%4u  %3.0f  %7zu %9zu  %6.2f  %6.2f  %6.2f  %7.2f %%\n",
                stats.node_id,
                sessions[stats.node_id]->profile()
                    ? sessions[stats.node_id]->profile()->cr_percent()
                    : 0.0,
                stats.windows_reconstructed, stats.windows_concealed,
                stats.latency_p50_s * 1e3, stats.latency_p95_s * 1e3,
                stats.latency_p99_s * 1e3, mean_prd);
  }
  std::printf("windows decoded         : %zu (+%zu concealed, "
              "%zu frames rejected)\n",
              report.windows_reconstructed, report.windows_concealed,
              report.frames_rejected);
  std::printf("profiles applied        : %zu in-band\n",
              report.profiles_applied);
  std::printf("decode latency (fleet)  : p50 %.2f ms  p95 %.2f ms  "
              "p99 %.2f ms\n",
              report.latency_p50_s * 1e3, report.latency_p95_s * 1e3,
              report.latency_p99_s * 1e3);
  std::printf("deadline                : %zu misses (budget %.2f s)\n",
              report.deadline_misses, fleet_config.deadline_seconds);
  std::printf("queue high water        : %zu / %zu\n",
              report.queue_high_water, fleet_config.queue_depth);
  std::printf("wall time               : %.2f s (%.1f windows/s)\n",
              report.wall_seconds,
              report.wall_seconds <= 0.0
                  ? 0.0
                  : static_cast<double>(report.windows_reconstructed) /
                        report.wall_seconds);
  std::printf("mean FISTA iterations   : %.1f\n", report.mean_iterations());

  const auto json = args.find("json");
  if (json != args.end()) {
    std::ofstream out(json->second);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json->second.c_str());
      return 1;
    }
    obs::export_jsonl(fleet.session(), out);
    std::printf("JSONL session dump      : %s\n", json->second.c_str());
  }
  return 0;
}

/// `gateway [--soak]`: run the sharded GatewayService under the
/// deterministic duty-cycled traffic model. The plain mode is a short
/// demo of the admission ladder; --soak turns on the full gate battery:
/// golden-CRC validation of every delivered reconstruction, exact
/// shed/admit accounting, bounded queue high-water, and a steady phase
/// that must complete without a single heap allocation (global
/// operator-new hook; CSECG_ALLOC_TRAP=1 aborts with a backtrace at the
/// offending site).
int cmd_gateway(const Args& args) {
  const bool soak = get_double(args, "soak", 0.0) != 0.0;

  wbsn::SoakConfig cfg;
  // Soak defaults model the acceptance configuration (10k registered
  // nodes); the demo is a lighter cut of the same shape. The duty cycle
  // is the throughput knob: ~nodes * duty_on / duty_period nodes connect
  // per tick, and every paced tick decodes that many windows.
  cfg.traffic.nodes = static_cast<std::size_t>(
      get_double(args, "nodes", soak ? 10000.0 : 1000.0));
  cfg.traffic.streams = static_cast<std::size_t>(
      get_double(args, "streams", soak ? 6.0 : 3.0));
  cfg.traffic.records = static_cast<std::size_t>(
      get_double(args, "records", soak ? 3.0 : 2.0));
  cfg.traffic.keyframe_interval =
      static_cast<std::size_t>(get_double(args, "keyframe", 16.0));
  cfg.traffic.windows_per_stream =
      static_cast<std::size_t>(get_double(args, "windows", 32.0));
  cfg.traffic.clusters = static_cast<std::size_t>(
      get_double(args, "clusters", soak ? 64.0 : 16.0));
  cfg.traffic.duty_on =
      static_cast<std::size_t>(get_double(args, "duty-on", 4.0));
  cfg.traffic.duty_period = static_cast<std::size_t>(
      get_double(args, "duty-period", soak ? 2048.0 : 512.0));
  cfg.traffic.seed =
      static_cast<std::uint64_t>(get_double(args, "seed", 2011.0));
  if (args.find("cr") != args.end()) {
    cfg.traffic.crs = parse_cr_list(args, "50");
  }
  cfg.traffic.leads = parse_leads(args);

  cfg.gateway.shards =
      static_cast<std::size_t>(get_double(args, "shards", 2.0));
  cfg.gateway.shard.workers = std::max<std::size_t>(
      1, static_cast<std::size_t>(get_double(args, "workers", 1.0)));
  cfg.gateway.shard.queue_depth = static_cast<std::size_t>(
      get_double(args, "queue", soak ? 256.0 : 64.0));
  cfg.gateway.shard.decode_batch =
      static_cast<std::size_t>(get_double(args, "batch", 4.0));
  cfg.gateway.shard.backend = &parse_backend(args);
  cfg.gateway.shard.prior = parse_prior(args);

  // The demo runs a shorter timeline than the soak: enough ticks to see
  // the ladder climb and clear, not enough to gate on.
  cfg.warmup_ticks = static_cast<std::size_t>(
      get_double(args, "warmup", soak ? 96.0 : 64.0));
  cfg.steady_ticks = static_cast<std::size_t>(
      get_double(args, "steady", soak ? 192.0 : 64.0));
  cfg.force_shed_in_warmup = get_double(args, "force-shed", 1.0) != 0.0;
  cfg.on_progress = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };

  // The allocation gate brackets exactly the measured phase: run_soak
  // fires these after the queues drain, so in-flight decode work can
  // never blur the count.
  std::size_t steady_allocations = 0;
  if (soak) {
    cfg.on_steady_begin = [] {
      g_allocations.store(0);
      g_count_allocations.store(true);
    };
    cfg.on_steady_end = [&steady_allocations] {
      g_count_allocations.store(false);
      steady_allocations = g_allocations.load();
    };
  }

  // Live telemetry sinks must outlive run_soak; the streams are plain
  // ofstreams owned here.
  std::ofstream timeline_out;
  const auto timeline = args.find("timeline");
  if (timeline != args.end()) {
    timeline_out.open(timeline->second);
    if (!timeline_out) {
      std::fprintf(stderr, "cannot write %s\n", timeline->second.c_str());
      return 1;
    }
    cfg.timeline_out = &timeline_out;
    cfg.timeline_interval_ticks = std::max<std::size_t>(
        1, static_cast<std::size_t>(get_double(args, "timeline-every", 16.0)));
  }
  std::ofstream flight_out;
  const auto flight = args.find("flight");
  if (flight != args.end()) {
    flight_out.open(flight->second);
    if (!flight_out) {
      std::fprintf(stderr, "cannot write %s\n", flight->second.c_str());
      return 1;
    }
    cfg.flight_out = &flight_out;
  }

  const auto json = args.find("json");
  const auto prom = args.find("prom");
  int json_status = 0;
  if (json != args.end() || prom != args.end()) {
    cfg.on_session = [&](obs::Session& session) {
      if (json != args.end()) {
        std::ofstream out(json->second);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", json->second.c_str());
          json_status = 1;
          return;
        }
        obs::export_jsonl(session, out);
      }
      if (prom != args.end()) {
        std::ofstream out(prom->second);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", prom->second.c_str());
          json_status = 1;
          return;
        }
        obs::render_prometheus(session.registry(), out);
      }
    };
  }

  const auto result = wbsn::run_soak(cfg);
  const auto& report = result.report;

  std::printf("\ngateway                 : %zu shards x %zu workers, "
              "queue %zu, %s kernels (batch %zu)%s\n",
              cfg.gateway.shards, cfg.gateway.shard.workers,
              cfg.gateway.shard.queue_depth,
              cfg.gateway.shard.backend->name(),
              std::max<std::size_t>(1, cfg.gateway.shard.decode_batch),
              soak ? ", soak gates on" : "");
  std::printf("population              : %zu registered, %zu materialised, "
              "%zu streams x %zu windows\n",
              cfg.traffic.nodes, result.nodes_registered,
              cfg.traffic.streams, cfg.traffic.windows_per_stream);
  std::printf("offered                 : %zu (= %zu admitted + %zu shed "
              "drop + %zu shed full) %s\n",
              result.offered, result.admitted, result.shed_dropped,
              result.shed_queue_full,
              report.accounts_exactly() ? "[exact]" : "[MISMATCH]");
  std::printf("delivered               : %zu decoded + %zu concealed "
              "(%zu shed-concealed, %zu gap)\n",
              result.delivered_decoded, result.delivered_concealed,
              report.windows_shed_concealed, result.gap_concealments);
  std::printf("CRC validation          : %zu checked, %zu mismatches\n",
              result.crc_checked, result.crc_mismatches);
  std::printf("tier transitions        : %zu escalations, %zu clears, "
              "%zu NACKs suppressed\n",
              report.tier_escalations, report.tier_clears,
              report.nacks_suppressed);
  std::printf("steady phase            : %zu offered, %zu delivered, "
              "%zu skipped cold\n",
              result.steady_offered, result.steady_delivered,
              result.steady_skipped);
  if (soak) {
    std::printf("steady allocations      : %zu (gate: 0)\n",
                steady_allocations);
  }
  std::printf("wall time               : %.2f s\n\n", result.wall_seconds);

  obs::render_slo_table(result.slo, std::cout);

  if (json != args.end() && json_status == 0) {
    std::printf("\nJSONL session dump      : %s\n", json->second.c_str());
  }
  if (prom != args.end() && json_status == 0) {
    std::printf("Prometheus exposition   : %s\n", prom->second.c_str());
  }
  if (timeline != args.end()) {
    std::printf("timeline JSONL          : %s\n", timeline->second.c_str());
  }
  if (flight != args.end()) {
    std::printf("flight-recorder dumps   : %s\n", flight->second.c_str());
  }

  bool failed = json_status != 0;
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "SOAK FAILURE: %s\n", failure.c_str());
    failed = true;
  }
  if (soak && steady_allocations != 0) {
    std::fprintf(stderr,
                 "SOAK FAILURE: %zu heap allocations in the steady phase "
                 "(expected 0; rerun with CSECG_ALLOC_TRAP=1 for a "
                 "backtrace)\n",
                 steady_allocations);
    failed = true;
  }
  if (!failed) {
    std::printf("\n%s: all gates passed\n", soak ? "SOAK" : "gateway");
  }
  return failed ? 1 : 0;
}

/// `metrics --trace dump.jsonl`: re-render a previously exported session.
int cmd_metrics_trace(const Args& args) {
  const std::string& path = args.at("trace");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  obs::Session session;
  std::string error;
  if (!obs::import_jsonl(in, session, &error)) {
    std::fprintf(stderr, "malformed trace %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  obs::render_summary(session, std::cout);
  const auto prom = args.find("prom");
  if (prom != args.end()) {
    std::ofstream out(prom->second);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", prom->second.c_str());
      return 1;
    }
    obs::render_prometheus(session.registry(), out);
    std::printf("\nPrometheus exposition   : %s\n", prom->second.c_str());
  }
  return 0;
}

/// `metrics [--in rec.csecg] ...`: stream a record (loaded or freshly
/// synthesised) through the observed real-time pipeline and print the
/// telemetry report; --json additionally dumps the session as JSONL.
int cmd_metrics_session(const Args& args) {
  ecg::Record record;
  const auto it = args.find("in");
  if (it != args.end()) {
    const auto loaded = io::load_record(it->second);
    if (!loaded) {
      std::fprintf(stderr, "cannot read record\n");
      return 1;
    }
    record = *loaded;
  } else {
    ecg::EcgSynConfig gen;
    gen.sample_rate_hz = get_double(args, "rate", 256.0);
    gen.duration_s = get_double(args, "seconds", 30.0);
    gen.seed = static_cast<std::uint64_t>(get_double(args, "seed", 1.0));
    const auto generated = ecg::generate_ecg(gen);
    record.id = "synthetic";
    record.sample_rate_hz = gen.sample_rate_hz;
    record.samples = ecg::AdcModel().quantize(generated.samples_mv);
  }

  core::DecoderConfig config;
  config.cs.keyframe_interval =
      static_cast<std::size_t>(get_double(args, "keyframe", 64.0));
  wbsn::PipelineConfig pipe = parse_pipeline_args(args);
  pipe.backend = &parse_backend(args);

  obs::Session session;
  pipe.obs = &session;
  wbsn::RealTimePipeline pipeline(config, core::default_difference_codebook(),
                                  pipe);
  const auto report = pipeline.run(record);

  obs::render_summary(session, std::cout);
  std::printf("decode backend          : %s\n", pipe.backend->name());
  std::printf("\ndecode latency (host)   : p50 %.1f ms  p95 %.1f ms  "
              "p99 %.1f ms  max %.1f ms over %zu windows\n",
              report.latency_p50_s * 1e3, report.latency_p95_s * 1e3,
              report.latency_p99_s * 1e3, report.latency_max_s * 1e3,
              report.latency_windows);
  std::printf("deadline                : %zu misses / %zu windows "
              "(%.2f %%, budget %.2f s)\n",
              report.deadline_misses, report.latency_windows,
              report.deadline_miss_rate * 100.0, report.deadline_budget_s);
  std::printf("mean PRD (clean windows): %.2f %%\n", report.mean_prd);

  const auto json = args.find("json");
  if (json != args.end()) {
    std::ofstream out(json->second);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json->second.c_str());
      return 1;
    }
    obs::export_jsonl(session, out);
    std::printf("JSONL session dump      : %s\n", json->second.c_str());
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  if (args.count("trace") != 0) {
    return cmd_metrics_trace(args);
  }
  if (args.count("a") == 0 && args.count("b") == 0) {
    return cmd_metrics_session(args);
  }
  const auto a = io::load_record(need(args, "a"));
  const auto b = io::load_record(need(args, "b"));
  if (!a || !b) {
    std::fprintf(stderr, "cannot read records\n");
    return 1;
  }
  const std::size_t n = std::min(a->samples.size(), b->samples.size());
  if (n == 0) {
    std::fprintf(stderr, "no overlapping samples\n");
    return 1;
  }
  std::vector<double> xa(n);
  std::vector<double> xb(n);
  for (std::size_t i = 0; i < n; ++i) {
    xa[i] = static_cast<double>(a->samples[i]);
    xb[i] = static_cast<double>(b->samples[i]);
  }
  const double prd = ecg::prd(xa, xb);
  std::printf("samples compared : %zu\n", n);
  std::printf("PRD              : %.3f %% (%s)\n", prd,
              ecg::quality_band_name(ecg::classify_quality(prd)).c_str());
  std::printf("PRD-N            : %.3f %%\n", ecg::prd_normalized(xa, xb));
  std::printf("SNR              : %.2f dB\n", ecg::snr_from_prd(prd));

  // Diagnostic quality: do the beats survive?
  ecg::QrsDetectorConfig qrs;
  qrs.sample_rate_hz = a->sample_rate_hz;
  const auto detected = ecg::detect_qrs(xb, qrs);
  if (!a->beat_onsets.empty()) {
    const auto match = ecg::match_beats(a->beat_onsets, detected,
                                        a->sample_rate_hz);
    std::printf("QRS sensitivity  : %.3f\n", match.sensitivity);
    std::printf("QRS +predictivity: %.3f\n", match.positive_predictivity);
    std::printf("R timing error   : %.1f ms\n", match.mean_timing_error_ms);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: csecg_tool {generate|info|csv|encode|decode|"
                 "metrics|stream|fleet|gateway} --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "generate") {
      return cmd_generate(args);
    }
    if (command == "info") {
      return cmd_info(args);
    }
    if (command == "csv") {
      return cmd_csv(args);
    }
    if (command == "encode") {
      return cmd_encode(args);
    }
    if (command == "decode") {
      return cmd_decode(args);
    }
    if (command == "metrics") {
      return cmd_metrics(args);
    }
    if (command == "stream") {
      return cmd_stream(args);
    }
    if (command == "fleet") {
      return cmd_fleet(args);
    }
    if (command == "gateway") {
      return cmd_gateway(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
