#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload design_tpcch --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ and the advisor sources it
compiles into .bench_build/perfbench, runs one workload and checks that the
metrics it printed are exactly the ones BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced), with the same units. The last line
of standard output is the run's JSON result. Exits non-zero without a result
when the build fails, the run crashes, or the metrics do not match; exits 1
with a result whose "correct" is false when an output check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ("design_tpcch", "refine_tpcch", "serve_ssb")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    """Every printed metric is listed in BENCHMARK.json, and the reverse."""
    expected = expected_metrics(trace)
    problems = []
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} is listed but was not printed")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} was printed but is not listed")
    for name, metric in metrics.items():
        value = metric.get("value")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"metric {name} has unit {metric.get('unit')}, "
                            f"BENCHMARK.json says {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value}")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {name} is not positive: {value}")
    return problems


def run(args):
    cmd = [BINARY]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"perfbench exited {proc.returncode} without output")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench exited {proc.returncode}; last line is not JSON: {lines[-1]}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"manifest git_sha={git_sha()} source_sha256={source_digest()}")
    if args.selftest:
        print("selftest", "passed" if proc.returncode == 0 else "FAILED")
        return proc.returncode
    problems = check_metrics(result["metrics"], args.trace == 1)
    if problems:
        for p in problems:
            log("BENCHMARK.json mismatch:", p)
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="percentile and decorator self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        build()
        if args.workload != "all":
            return run(args)
        status = 0
        for workload in WORKLOADS:
            status |= run(argparse.Namespace(**{**vars(args),
                                                "workload": workload}))
        return status
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
