#!/usr/bin/env python3
"""Build and run the benchmark for one workload, check its output, print
every metric by name with its unit, and end with one JSON result line.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The program (perfbench/main.ml) is built
from source with dune into $CARGO_TARGET_DIR (default .bench_build).
With --trace 0 the result line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. perfbench/catalog.json
gives each metric its unit, clock and layer, and each workload its
sizes. The exit code is non-zero on a failed build, a failed answer
check or malformed output.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_catalog():
    with open(os.path.join(HERE, "catalog.json")) as f:
        return json.load(f)


def check_benchmark_json(catalog):
    """BENCHMARK.json must name the catalog's gated workloads and metrics
    with the same units."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return
    with open(path) as f:
        bench = json.load(f)
    metrics = catalog["metrics"]
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            c = metrics.get(m["name"])
            if c is None or c["kind"] != section or c["unit"] != m["unit"] or c["better"] != m["better"]:
                fail("BENCHMARK.json metric %s disagrees with catalog.json" % m["name"])
    gated = sorted(w for w, c in catalog["workloads"].items() if c["gated"])
    if sorted(w["name"] for w in bench["workloads"]) != gated:
        fail("BENCHMARK.json workloads disagree with catalog.json")


def build(root, build_dir):
    if not os.path.exists(os.path.join(root, "dune-project")) or not os.path.isdir(os.path.join(root, "lib")):
        fail("no dune project with lib/ at %s; run from the repository root" % root)
    # Keep the build's caches and the compilers' temporary files inside
    # the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(build_dir, "cache"),
               TMPDIR=tmp)
    cmd = ["dune", "build", "--root", root, "--build-dir", build_dir, "--profile", "release", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run(exe, args, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(out_dir, "result-%s.json" % tag)
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    if args.trace:
        cmd += ["--trace-file", os.path.join(out_dir, "trace-%s.json" % tag)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark program exited with %d" % proc.returncode)
    try:
        with open(out) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("malformed result: %s" % e)


def number(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        fail("metric %s is not a finite number: %r" % (name, v))
    return v


def select(catalog, result, workload, trace):
    """The metrics of the result line, in catalog order. End-to-end
    metrics must be present and positive; a per-layer metric must be
    present on the workloads that exercise its layer and reads 0
    elsewhere."""
    kind = "per_layer" if trace else "end_to_end"
    got = result.get(kind)
    if not isinstance(got, dict):
        fail("malformed result: no %s section" % kind)
    unknown = set(got) - {n for n, c in catalog["metrics"].items() if c["kind"] == kind}
    if unknown:
        fail("malformed result: unknown metrics %s" % sorted(unknown))
    out = {}
    for name, c in catalog["metrics"].items():
        if c["kind"] != kind:
            continue
        if name in got:
            v = number(name, got[name])
        elif workload in c["workloads"]:
            fail("malformed result: %s missing on %s" % (name, workload))
        else:
            v = 0.0
        if kind == "end_to_end" and v <= 0:
            fail("end-to-end metric %s is not positive: %r" % (name, v))
        out[name] = v
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    catalog = load_catalog()
    if args.workload not in catalog["workloads"]:
        fail("unknown workload %s (known: %s)" % (args.workload, ", ".join(catalog["workloads"])))
    check_benchmark_json(catalog)
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    t0 = time.time()
    exe = build(root, build_dir)
    print("built in %.1f s" % (time.time() - t0), file=sys.stderr)
    result = run(exe, args, os.path.join(build_dir, "perfbench"))

    try:
        attempted = int(result["attempted"])
        failed = int(result["failed"])
        deterministic = bool(result["deterministic"])
        info = result["info"]
    except (KeyError, TypeError, ValueError) as e:
        fail("malformed result: %s" % e)
    if result.get("workload") != args.workload or attempted < 1 or failed < 0:
        fail("malformed result header")
    metrics = select(catalog, result, args.workload, args.trace)

    w = catalog["workloads"][args.workload]
    print("workload %s (seed %d): %s loop, %s" % (args.workload, args.seed, w["loop"], w["why"]))
    print("  sizes: " + ", ".join("%s=%g" % kv for kv in sorted(info.items())))
    # A traced run's end-to-end numbers cover its first request sequence
    # only; the result line then carries the per-layer metrics.
    shown = [("end_to_end", result["end_to_end"])]
    if args.trace:
        shown.append(("per_layer", metrics))
    for kind, values in shown:
        print("  %s%s:" % (kind, " (first sequence, untraced)" if args.trace and kind == "end_to_end" else ""))
        for name, c in catalog["metrics"].items():
            if c["kind"] == kind:
                v = values.get(name, 0.0)
                clock = "counter" if c["clock"] == "counter" else c["clock"] + " clock"
                print("  %-36s %16.6g %-9s [%s; %s]" % (name, v, c["unit"], clock, c["layer"]))
    correct = failed == 0 and deterministic
    if not deterministic:
        print("perfbench: a repeated request sequence gave different simulated numbers", file=sys.stderr)
    if failed:
        print("perfbench: %d of %d requests failed the answer check" % (failed, attempted), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": catalog["metrics"][n]["unit"]} for n, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
