#!/usr/bin/env bash
# Verifies the observability facade is zero-overhead when compiled out:
# builds bench_kernels_micro with CSECG_OBS=ON and =OFF and asserts the
# OFF build's micro-kernel timings are within a small tolerance of the ON
# build's (i.e. the instrumented build does not regress the hot kernels).
# The facade's fast path when no session is attached is one thread-local
# load + branch, so both builds should time identically to noise.
#
# flight_record/crc300 extends the check to the gateway ingest hot path:
# under ON it checksums a frame *and* appends a structured event to the
# flight recorder's seqlock ring, under OFF the record() call is
# compiled out — so its delta prices the recorder append itself. CI runs
# this as a gating job (tolerance 8 %, which absorbs runner noise while
# still catching an accidental lock or allocation on the append path).
#
# Each build's bench writes its own --json artefact (rows of benchmark,
# backend, ns_per_call). The two builds run minutes apart on a host whose
# speed drifts, so the script alternates three ON and three OFF runs
# (ON first on odd rounds, OFF first on even ones) and compares
# per-kernel medians.
#
# Usage: scripts/check_obs_overhead.sh [tolerance-percent]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tolerance="${1:-2}"
repeats=3

bench_filter="${CSECG_OBS_BENCH_FILTER:-.}"
common_flags=(
  -DCMAKE_BUILD_TYPE=Release
  -DCSECG_BUILD_TESTS=OFF
  -DCSECG_BUILD_EXAMPLES=OFF
  -DCSECG_BUILD_BENCHMARKS=ON
)

for obs in ON OFF; do
  dir="${repo_root}/build-obs-${obs}"
  cmake -S "${repo_root}" -B "${dir}" "${common_flags[@]}" \
    -DCSECG_OBS="${obs}" >/dev/null
  cmake --build "${dir}" --target bench_kernels_micro -j"$(nproc)"
  rm -f "${dir}"/kernels_micro.*.json
done

for ((round = 1; round <= repeats; ++round)); do
  if ((round % 2 == 1)); then order=(ON OFF); else order=(OFF ON); fi
  for obs in "${order[@]}"; do
    dir="${repo_root}/build-obs-${obs}"
    "${dir}/bench/bench_kernels_micro" \
      --benchmark_filter="${bench_filter}" \
      --json "${dir}/kernels_micro.${round}.json" >/dev/null
  done
done

python3 - "${repo_root}/build-obs-ON" "${repo_root}/build-obs-OFF" \
  "${tolerance}" <<'EOF'
import glob, json, os, statistics, sys


def medians(build_dir):
    runs = {}
    for path in glob.glob(os.path.join(build_dir, "kernels_micro.*.json")):
        with open(path) as f:
            report = json.load(f)
        col = {name: i for i, name in enumerate(report["columns"])}
        for row in report["rows"]:
            name = f'{row[col["benchmark"]]}/{row[col["backend"]]}'
            runs.setdefault(name, []).append(float(row[col["ns_per_call"]]))
    return {name: (statistics.median(ns), len(ns)) for name, ns in runs.items()}


on = medians(sys.argv[1])
off = medians(sys.argv[2])
tolerance = float(sys.argv[3])
if not on.keys() & off.keys():
    print("FAIL: no kernel timed in both builds")
    sys.exit(1)

worst = 0.0
failed = []
for name in sorted(on.keys() & off.keys()):
    # Positive delta = the instrumented (ON) build is slower than OFF.
    delta = (on[name][0] - off[name][0]) / off[name][0] * 100.0
    worst = max(worst, delta)
    marker = ""
    if delta > tolerance:
        failed.append(name)
        marker = "  <-- over tolerance"
    print(f"{name:48s} ON {on[name][0]:10.1f}  OFF {off[name][0]:10.1f}  "
          f"delta {delta:+6.2f} % (median of {on[name][1]}/{off[name][1]})"
          f"{marker}")

print(f"\nworst instrumented-vs-stripped delta: {worst:+.2f} % "
      f"(tolerance {tolerance} %)")
if failed:
    print(f"FAIL: {len(failed)} kernel(s) regressed with CSECG_OBS=ON")
    sys.exit(1)
print("OK: observability build is within tolerance of the stripped build")
EOF
