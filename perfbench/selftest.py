#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size twice with one seed and once with
another, plus one tiny traced run each, and checks that

  * the deterministic ledger (the "counts:", "arq wait" and "quality:"
    lines, and the attempted/failed/prd_pct/delivered_pct/node_lifetime_h
    figures) is identical for the same seed and differs across seeds;
  * every metric BENCHMARK.json names is printed, with its unit, by the
    untraced (end_to_end) and traced (per_layer) runs.

Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Tiny sizes: a few nodes and windows, one set-up, so the whole test
# takes about two minutes.
TINY = {
    "ward": ["--nodes", "9", "--windows", "3"],
    "holter": ["--nodes", "3", "--windows", "8"],
    "leads3": ["--nodes", "8", "--windows", "4"],
}
LEDGER_LINES = ("counts:", "arq wait", "quality:")
EXACT_METRICS = ("prd_pct", "delivered_pct", "node_lifetime_h")


def fail(message):
    print("SELFTEST FAILED: " + message, file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "4", "--trace", str(trace), "--setups", "1"]
    cmd += TINY[workload]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail("%s seed %d trace %d exited %d:\n%s" %
             (workload, seed, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        fail("%s seed %d: result not correct: %s" % (workload, seed,
                                                    lines[-1]))
    ledger = [line for line in lines if line.startswith(LEDGER_LINES)]
    if len(ledger) != len(LEDGER_LINES):
        fail("%s seed %d: ledger lines missing" % (workload, seed))
    figures = [result["attempted"], result["failed"]]
    if trace == 0:
        figures += [result["metrics"][name]["value"] for name in EXACT_METRICS]
    return ledger + [repr(figures)], result


def check_metrics(workload, result, declared, kind):
    printed = result["metrics"]
    for metric in declared:
        name = metric["name"]
        if name not in printed:
            fail("%s: %s metric %s not printed" % (workload, kind, name))
        if printed[name].get("unit") != metric["unit"]:
            fail("%s: %s printed with unit %r, BENCHMARK.json says %r" %
                 (workload, name, printed[name].get("unit"), metric["unit"]))
    extra = set(printed) - {metric["name"] for metric in declared}
    if extra:
        fail("%s: undeclared %s metrics printed: %s" %
             (workload, kind, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    for workload in [w["name"] for w in spec["workloads"]]:
        first, result = run(workload, 1, 0)
        again, _ = run(workload, 1, 0)
        other, _ = run(workload, 2, 0)
        if first != again:
            fail("%s: same seed, different work:\n%s\n%s" %
                 (workload, "\n".join(first), "\n".join(again)))
        if first[0] == other[0]:
            fail("%s: seeds 1 and 2 did identical work" % workload)
        check_metrics(workload, result, spec["end_to_end"], "end_to_end")
        traced, traced_result = run(workload, 1, 1)
        if traced[0] != first[0]:
            fail("%s: the traced run did different work" % workload)
        check_metrics(workload, traced_result, spec["per_layer"], "per_layer")
        print("%-7s deterministic per seed, seed-sensitive, %d + %d metrics "
              "printed with units" % (workload, len(spec["end_to_end"]),
                                      len(spec["per_layer"])))
    print("selftest passed")


if __name__ == "__main__":
    main()
