#!/usr/bin/env python3
"""End-to-end benchmark of the SABER engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload remote_select --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the engine library, saber_server and the load generator)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset, runs one workload and relays the generator's result: the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("remote_select", "hybrid_two_query", "small_task_agg")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds perfbench; returns the build directory."""
    for needed in ("src/CMakeLists.txt", "tools/saber_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError(f"missing {needed}: run from a SABER checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def run_generator(cmd):
    """Runs the generator in its own process group, so that a timeout also
    stops the saber_server it started. Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"generator exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and all(set(m) == {"value", "unit"} for m in result["metrics"].values()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--processors", choices=("cpu", "gpu", "hybrid"),
                    default="hybrid",
                    help="hybrid_two_query only: run on one processor")
    ap.add_argument("--scheduler", choices=("fcfs", "hls"), default="fcfs",
                    help="hybrid_two_query only: the scheduling policy")
    ap.add_argument("--selftest", action="store_true",
                    help="show that every output check rejects wrong output")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    try:
        out = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: cannot build: {e}")
        return 2
    binary = os.path.join(out, "saber_perfbench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode

    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(out, "saber_server"), "--out-dir", traces,
           "--processors", args.processors, "--scheduler", args.scheduler]
    try:
        code, stdout = run_generator(cmd)
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    lines = stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        log(f"perfbench: generator exited {code} without a result")
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
