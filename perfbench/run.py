#!/usr/bin/env python3
"""streamq end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the shipped streamq_server
and the load generator from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
no tracing; --trace 1 the per-layer ones, from a traced TCP run and an
in-process layer replay, and writes the spans as Chrome trace-event JSON to
<build dir>/trace-<workload>.json. The exit status is 0 only when every
output check passed. Every file the run writes stays under the build dir.
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
WORKLOADS = ("bulk-random", "bulk-dcs", "mixed-durable")
LOADGEN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; False when the sources are missing or
    the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no streamq sources next to perfbench/ (expected "
            "src/CMakeLists.txt); nothing to build")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None when the
    file is absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 2

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--server", os.path.join(build_dir, "streamq_server"),
           "--work-dir", work_dir,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    # Every data dir the run writes gets tmpfs semantics: the load
    # generator, its in-process replay and the servers it spawns all run
    # with fsync turned into a no-op (see tmpfs_sync.cc).
    env = dict(os.environ, LD_PRELOAD=os.path.join(
        build_dir, "libperfbench_tmpfs_sync.so"))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The server children die with the load generator (PDEATHSIG).
        log("perfbench: load generator timed out after %d s"
            % LOADGEN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: load generator printed no result (exit %d)"
            % proc.returncode)
        sys.stdout.write(proc.stdout)
        return 4
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: %s"
            % sorted(set(expected) ^ set(result["metrics"])))
        return 5
    for line in lines[:-1]:
        print(line)
    print("run took %.1f s" % (time.monotonic() - start))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
