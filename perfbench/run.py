#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the program under test
from that checkout (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from the seed, runs the
workload, checks every output, and prints every metric by name and unit.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics of
an in-process traced replay with --trace 1. Exit status: 0 when every
check passed, 1 when a check failed, 2 when the benchmark could not run
(no source tree next to it, build failure, bad arguments).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import procs, workloads  # noqa: E402

TARGETS = {"rts": "rts/apps/rts", "rts_serve": "rts/apps/rts_serve",
           "harness": "rts_perfbench"}

# This benchmark runs on shared virtual machines. When the hypervisor takes
# a large share of the CPU during an attempt (steal time), or the load
# generator fell behind its schedule, the attempt likely measured the
# neighbours rather than the program: it is made again, from a fresh set-up,
# and the metrics of the attempt that was on time and had the least steal
# are reported. Only these machine signals start another attempt, never the
# program's own failures, and `attempted` and `failed` are summed over every
# attempt, so a failure cannot be retried away. Another attempt starts only
# while the run is young enough to finish well within its time limit, and
# never after a correctness failure.
STEAL_RETRY_SHARE = 0.01
MAX_ATTEMPTS = 3
NEW_ATTEMPT_BEFORE_S = 70.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(root, build_dir):
    """Configure (once) and build the three executables; returns their paths.
    CMake's own up-to-date check makes a build of an unchanged tree a no-op."""
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    bins = {name: os.path.join(cmake_dir, rel) for name, rel in TARGETS.items()}
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target", "rts_cli",
                  "rts_serve", "rts_perfbench"])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, check=False).returncode != 0:
                with open(log_path, "rb") as f:
                    sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
                return None
    return bins


def stamp(root, build_dir):
    """Machine and build the numbers come from."""
    cache = {}
    with open(os.path.join(build_dir, "cmake", "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                  check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False).stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "rts_native_arch": cache.get("RTS_NATIVE_ARCH"),
            "openmp": cache.get("RTS_WITH_OPENMP"),
            "git_sha": sha, "source_sha256": source_digest(root)}


def source_digest(root):
    """Digest of the sources the build reads (the checkout may not be a git
    repository, so this identifies the code when git_sha cannot)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path) for name in names)
        for name in files:
            if "__pycache__" in name:
                continue
            h.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def steal_ticks():
    """Cumulative steal time of all CPUs, in clock ticks (None if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def run_attempts(runner, make_ctx):
    """Run the workload, again while the machine spoils the attempts; returns
    the on-time attempt with the least steal, annotated with every attempt's
    share and carrying the request counts of all of them."""
    attempts = []
    tick = os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    first = time.perf_counter()
    while True:
        start, before = time.perf_counter(), steal_ticks()
        res = runner(make_ctx(len(attempts)))
        elapsed = time.perf_counter() - start
        after = steal_ticks()
        share = (after - before) / (tick * elapsed) if before is not None else 0.0
        attempts.append((share, res))
        spoiled = share > STEAL_RETRY_SHARE or not res.environment_ok
        if (not res.program_ok or not spoiled or len(attempts) == MAX_ATTEMPTS
                or time.perf_counter() - first + elapsed > NEW_ATTEMPT_BEFORE_S):
            break
    failing = [a for a in attempts if not a[1].program_ok]
    share, best = failing[0] if failing else min(
        attempts, key=lambda a: (not a[1].environment_ok, a[0]))
    best.lines.insert(0, "steal: " + ", ".join(
        f"attempt {k} {s:.2%} of CPU, {r.failed} of {r.attempted} failed"
        for k, (s, r) in enumerate(attempts))
        + f"; metrics of attempt {attempts.index((share, best))}, counts of all")
    best.attempted = sum(r.attempted for _, r in attempts)
    best.failed = sum(r.failed for _, r in attempts)
    return best


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        return fail(f"no rts source tree at {root}; run from a full checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(root, build_dir)
    if bins is None:
        return fail("build failed")

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")

    def make_ctx(attempt):
        path = os.path.join(run_dir, f"attempt-{attempt}")
        os.makedirs(path)
        return workloads.Context(bins, path, args.seed, args.seconds, bool(args.trace))

    print("stamp " + json.dumps(stamp(root, build_dir), sort_keys=True))
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]['why']}")
    try:
        res = run_attempts(workloads.RUNNERS[args.workload], make_ctx)
    except (procs.ProcessError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        print(f"error: {e}")
        print(f"run directory kept: {run_dir}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    # A run that passed leaves nothing behind; a failed one keeps its inputs
    # and outputs for inspection.
    if res.correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        res.lines.append(f"run directory kept: {run_dir}")

    for line in res.lines:
        print(line)
    for name, ok, detail in res.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    if args.trace:
        for line in res.layer.lines():
            print(line)
        metrics = res.layer.metrics()
    else:
        metrics = {name: {"value": res.metrics[name][0], "unit": unit}
                   for name, unit in workloads.END_TO_END}
        for name, unit in workloads.END_TO_END:
            print(f"metric {name} = {res.metrics[name][0]:.6g} {unit}")
    print(json.dumps({"correct": res.correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
