#!/usr/bin/env python3
"""Build and run the ReCoSim end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload chaos-heal --seed 1 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is compiled from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the repository root. Build output
goes to stderr; the last stdout line is the benchmark's JSON result. A run
does a fixed amount of work per workload; --seconds is accepted for the
benchmark contract and ignored.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chaos", "chaos-heal", "stream")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build; returns the build dir or exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out


def self_test():
    out = build(["recosim-perfbench", "perfbench-tests"])
    r = subprocess.run([os.path.join(out, "perfbench-tests")])
    if r.returncode != 0:
        return r.returncode
    # The metric names the binary emits must be the ones BENCHMARK.json
    # declares, in both sets, with the same units.
    listed = subprocess.run([os.path.join(out, "recosim-perfbench"),
                             "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    emitted = {}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        emitted.setdefault(kind, []).append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != emitted.get(kind):
            print(f"perfbench: {kind} metrics differ from BENCHMARK.json",
                  file=sys.stderr)
            ok = False
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("perfbench: BENCHMARK.json names an unknown workload",
              file=sys.stderr)
        ok = False
    print("perfbench self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="ignored: the work per run is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    out = build(["recosim-perfbench"])
    tmp = os.path.join(out, "tmp")
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "recosim-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--tmp-dir", tmp,
           "--trace-out", os.path.join(
               traces, f"{args.workload}-seed{args.seed}.json"),
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
