#!/usr/bin/env python3
"""The repository benchmark: build perfbench, then run one workload.

    python3 perfbench/run.py --workload cold_sweep|warm_sweep|serve_warm \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the radiocast library, the radiocast_serve daemon and the perfbench
program from this checkout's sources (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
perfbench.  Build output goes to stderr; stdout carries perfbench's host
fingerprint line and, last, its result JSON.  The exit code is
perfbench's: 0 when every result matched the reference path, nonzero
otherwise.  Workload rationale: perfbench/WORKLOADS.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_sweep", "warm_sweep", "serve_warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds perfbench; False on any failure."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("radiocast sources not found (no %s in %s)" % (needed, ROOT))
            return False
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
        return False
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            configure = [cmake, "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append([cmake, "--build", bdir, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench", "perfbench_tests"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(step))
                return False
    return True


def run_child(argv):
    """Runs argv in its own process group; on timeout kills the group."""
    child = subprocess.Popen(argv, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


def self_test(bdir):
    """Runs the helper tests and checks BENCHMARK.json against perfbench's
    metric catalogue."""
    status = run_child([os.path.join(bdir, "perfbench_tests")])
    listed = subprocess.run([os.path.join(bdir, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    catalogue = {"end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        catalogue[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind in catalogue:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != catalogue[kind]:
            status = status or fail("BENCHMARK.json %s differs from perfbench" % kind)
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        status = status or fail("BENCHMARK.json workloads differ from perfbench")
    if status == 0:
        print("BENCHMARK.json matches perfbench's catalogue")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 2
    if args.self_test:
        return self_test(bdir)

    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    argv = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--spans-out",
                 os.path.join(traces, "%s-%d.spans.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return run_child(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
