#!/usr/bin/env python3
"""Smoke self-test of the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/selftest.py

Runs every workload at a tiny scale (--smoke, 2-second windows), traced and
untraced, and checks that
  * the run exits 0, reports correct outputs and no failed operation;
  * the last line of stdout is the JSON result, with exactly the keys
    correct/attempted/failed/metrics;
  * --trace 0 reports exactly the end-to-end metrics of BENCHMARK.json and
    --trace 1 exactly its per-layer metrics, each with the unit listed
    there, and every end-to-end value is a positive number;
  * the workload's named metrics (collect_s, analyze_pass_s, freshness and
    query percentiles, failed_frac, ...) are printed with their units.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Named lines each workload must print ("named <name> <value> <unit>").
NAMED = {
    "collect": {"collect_s": "s", "freshness_p90_ms": "ms",
                "failed_frac": "ratio"},
    "analyze": {"analyze_pass_s": "s", "freshness_p90_ms": "ms",
                "failed_frac": "ratio"},
    "serve_fresh": {"freshness_p50_ms": "ms", "freshness_p90_ms": "ms",
                    "query_p50_ms": "ms", "query_p99_ms": "ms",
                    "failed_frac": "ratio", "deadline_miss_frac": "ratio"},
}


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def printed(stdout, kind):
    """{name: (value, unit)} of the '<kind> name value unit' lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == kind:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    tag = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d\n%s" % (tag, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (tag, sorted(result)))
    if (result["correct"] is not True or result["attempted"] < 1 or
            result["failed"] != 0):
        failed_checks = [l for l in proc.stdout.splitlines()
                         if l.startswith("check FAIL")]
        fail("%s: correct=%s attempted=%s failed=%s\n%s" % (
            tag, result["correct"], result["attempted"], result["failed"],
            "\n".join(failed_checks)))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (tag, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not math.isfinite(value):
            fail("%s: %s = %r" % (tag, name, got[name]))
        if not trace and value <= 0:
            fail("%s: end-to-end metric %s is %r" % (tag, name, value))
    e2e_lines = printed(proc.stdout, "e2e")
    for m in spec["end_to_end"]:
        if e2e_lines.get(m["name"], (0, None))[1] != m["unit"]:
            fail("%s: no printed line for %s in %s" % (tag, m["name"],
                                                       m["unit"]))
    named = printed(proc.stdout, "named")
    for name, unit in NAMED[workload].items():
        if named.get(name, (0, None))[1] != unit:
            fail("%s: no printed line for %s in %s" % (tag, name, unit))
    print("ok   %s: %d metrics, %d named lines" % (tag, len(got), len(named)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
