#!/usr/bin/env python3
"""Outside-in benchmark of the IS2 sea-ice pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark binary from
source (CMake, into $CARGO_TARGET_DIR or .bench_build), generates the
workload's inputs for the seed in a separate process, runs the workload in
its own process with OMP_NUM_THREADS=1, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exits non-zero, without a result line, when it cannot build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import analysis  # noqa: E402

BUILD_TIMEOUT_S = 840
DATAGEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 150


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build the is2perf binary; returns its path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "is2perf")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc()), "--target", "is2perf"])
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    if not os.path.exists(binary):
        raise RuntimeError("build produced no %s" % binary)
    return binary


def run_step(cmd, env, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd[:3]), proc.returncode))
    return proc.stdout


def main():
    bench = analysis.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    run_dir = os.path.join(ROOT, ".bench_runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        # Inputs come from a separate process, fresh for every run: the
        # workload process's memory and time never include the simulation.
        gen_env = dict(os.environ, OMP_NUM_THREADS=str(nproc()))
        t0 = time.monotonic()
        run_step([binary, "datagen", "--workload", args.workload, "--dir", run_dir,
                  "--seed", str(args.seed)], gen_env, DATAGEN_TIMEOUT_S)
        datagen_s = time.monotonic() - t0

        # The workload process: one OpenMP thread per program thread, so the
        # thread budget it declares is what actually runs (libgomp reads the
        # variable once, at start-up).
        env = dict(os.environ, OMP_NUM_THREADS="1")
        run_step([binary, "run", "--workload", args.workload, "--dir", run_dir,
                  "--seed", str(args.seed), "--seconds", repr(args.seconds),
                  "--trace", str(args.trace)], env, RUN_TIMEOUT_S)
        with open(os.path.join(run_dir, "result.json")) as f:
            result = json.load(f)

        threads = result["threads"]
        log("threads: nproc %d, OMP_NUM_THREADS %d, runnable %d, spawned %d, observed %d"
            % (threads["nproc"], threads["omp_threads"], threads["runnable"],
               threads["spawned"], threads["observed"]))
        for key, value in sorted(result.get("info", {}).items()):
            log("%s: %s" % (key, value))
        errors = list(result["errors"])
        if args.trace:
            listed = bench["per_layer"]
            spans = analysis.load_spans(os.path.join(run_dir, "spans.csv"))
            values = analysis.per_layer(result, spans, datagen_s, [m["name"] for m in listed])
            log("traced %d ops, %d spans" % (len(result["op_ms"]), len(spans)))
        else:
            listed = bench["end_to_end"]
            values, note = analysis.end_to_end(result)
            log(note)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
        for e in errors:
            log("check failed: " + e)
        attempted = max(int(result["attempted"]), 1)
        failed = int(result["failed"])
        correct = not errors and failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            ValueError, OSError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(1)
