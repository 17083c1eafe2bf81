#!/usr/bin/env bash
# Builds the test suite under a sanitizer and runs it.
#
# Default (ASan + UBSan): the whole suite, including obs_test and the
# observed-pipeline tests, so the multi-threaded metrics registry /
# tracer paths get sanitizer coverage.
#
# --tsan (ThreadSanitizer): the concurrency-heavy subset by default —
# the fleet scheduler (worker pool, per-node in-order delivery,
# backpressure), the gateway cases that drive its workers through shed
# tiers, NACK suppression and delivery stamps (GatewayTest; the long
# GatewaySoakTest stays out — scripts/check_soak.sh soaks under TSan),
# the RingBuffer close-while-blocked races, the shared metrics registry,
# and the three-thread real-time pipeline (PipelineTest,
# TransportE2eTest), whose consumer thread drives the same Coordinator
# as the fleet workers and sends its feedback into the producer's
# StreamSession. Pass an explicit ctest regex to widen it.
#
# Usage: scripts/check_sanitize.sh [--tsan] [build-dir] [ctest-regex]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

mode=asan
if [[ "${1:-}" == "--tsan" ]]; then
  mode=tsan
  shift
fi

if [[ "${mode}" == "tsan" ]]; then
  build_dir="${1:-${repo_root}/build-tsan}"
  filter="${2:-Fleet|GatewayTest|RingBuffer|ObsMetrics|PipelineTest|TransportE2eTest}"
  sanitize_flags=(-DCSECG_SANITIZE=OFF -DCSECG_SANITIZE_THREAD=ON)
else
  build_dir="${1:-${repo_root}/build-asan}"
  filter="${2:-}"
  sanitize_flags=(-DCSECG_SANITIZE=ON -DCSECG_SANITIZE_THREAD=OFF)
fi

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "${sanitize_flags[@]}" \
  -DCSECG_BUILD_BENCHMARKS=OFF \
  -DCSECG_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j"$(nproc)"

ctest_args=(--output-on-failure --test-dir "${build_dir}")
if [[ -n "${filter}" ]]; then
  ctest_args+=(-R "${filter}")
fi
if [[ "${mode}" == "tsan" ]]; then
  TSAN_OPTIONS=halt_on_error=1 \
    ctest "${ctest_args[@]}"
else
  ASAN_OPTIONS=detect_leaks=0 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    ctest "${ctest_args[@]}"
fi
