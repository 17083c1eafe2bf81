#!/usr/bin/env bash
# Bounded gateway soak under ThreadSanitizer (~100 s on one CI core).
#
# Builds csecg_tool with TSan and runs `csecg_tool gateway --soak` at a
# reduced scale with the shed path forced (--force-shed pins a
# kDropToKeyframe slice into the warm-up burst, so the degrade ladder,
# NACK suppression and ARQ gap-abandonment all execute under the
# sanitizer even if natural pressure never overruns the queues).
#
# The tool exits non-zero if any soak gate fails: a single CRC mismatch
# between a delivered reconstruction and its clean reference decode, a
# shed-ledger imbalance, an unbounded queue, a shard left degraded, a
# steady phase that offered nothing, or a steady-state heap allocation.
# halt_on_error turns the first data race into a failure too.
#
# Usage: scripts/check_soak.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan-soak}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSECG_SANITIZE=OFF \
  -DCSECG_SANITIZE_THREAD=ON \
  -DCSECG_BUILD_TESTS=OFF \
  -DCSECG_BUILD_BENCHMARKS=OFF \
  -DCSECG_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j"$(nproc)" --target csecg_tool

# Reduced-scale soak: same phase structure as the full 10k-node run
# (burst + forced shed slice, recovery to kFullDecode, paced steady
# band), sized to finish in under two CI minutes under TSan's slowdown.
# --warmup 48 puts the warm tail's tick band, which the steady phase
# replays, where duty-cycled nodes connect (about 50 steady offers); at
# --warmup 32 that band is silent, the steady gates would hold
# vacuously, and run_soak fails the run. The live telemetry
# plane runs alongside: a timeline sampling every shard registry,
# anomaly-triggered flight dumps, and a final Prometheus exposition —
# all under the same zero-allocation steady gate.
telemetry_dir="$(mktemp -d)"
trap 'rm -rf "${telemetry_dir}"' EXIT
TSAN_OPTIONS=halt_on_error=1 \
  "${build_dir}/tools/csecg_tool" gateway --soak \
    --nodes 200 --streams 2 --records 1 --windows 24 --clusters 8 \
    --duty-on 4 --duty-period 128 --shards 2 --workers 1 --queue 32 \
    --batch 2 --warmup 48 --steady 24 --force-shed 1 \
    --timeline "${telemetry_dir}/soak_timeline.jsonl" \
    --flight "${telemetry_dir}/soak_flight.jsonl" \
    --prom "${telemetry_dir}/soak.prom"

# The forced warm-up tier-2 slice must have produced at least one
# anomaly-triggered flight dump with the trigger event in its window,
# and the timeline must have sampled the e2e latency histogram.
grep -q '"event":"tier_escalate".*"trigger":true' \
  "${telemetry_dir}/soak_flight.jsonl" || {
  echo "FAIL: no tier_escalate-triggered flight dump in soak_flight.jsonl"
  exit 1
}
grep -q '"kind":"histogram","name":"e2e.latency.seconds"' \
  "${telemetry_dir}/soak_timeline.jsonl" || {
  echo "FAIL: timeline never sampled e2e.latency.seconds"
  exit 1
}
grep -q '^csecg_e2e_latency_seconds_count' "${telemetry_dir}/soak.prom" || {
  echo "FAIL: Prometheus exposition is missing the e2e histogram"
  exit 1
}
echo "OK: flight dump, timeline and Prometheus artefacts all present"
