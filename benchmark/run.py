#!/usr/bin/env python3
"""Builds and runs the webcc layered benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload paper-sweep --seed 0 --seconds 24 --trace 0

Workloads are paper-sweep, topology-faults and serve-open (BENCHMARK.json
says why each exists; benchmark/METRICS.md defines every metric). The first
run configures and builds benchmark/ (the repository's src/ libraries plus
the harness) into .bench_build/, or into $CARGO_TARGET_DIR when set; later
runs only check that the build is current.

The harness's report goes to standard output, ending in one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics, and a
layer the workload bypasses reads 0. Build output goes to standard error.
Pass --print-digests to print the seed's digest line for benchmark/digests.txt.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"webcc sources not found under {ROOT}/src; run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.abspath(build_dir)
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "--target", "webcc_benchmark", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return build_dir


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = build()
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "webcc_benchmark"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--digests", os.path.join(BENCH_DIR, "digests.txt"), "--out", out_dir]
    if args.print_digests:
        command.append("--print-digests")
        sys.exit(subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode)

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        fail("benchmark printed no result line")

    end_to_end, per_layer = load_spec()
    expected = per_layer if args.trace == "1" else end_to_end
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if expected.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not in BENCHMARK.json with that unit")
    for name, unit in expected.items():
        if name not in metrics:
            if args.trace == "0":
                fail(f"end-to-end metric {name} was not measured")
            lines.insert(-1, f"metric {name:34} 0 {unit} (layer bypassed by {args.workload})")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in expected}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
