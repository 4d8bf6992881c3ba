#!/usr/bin/env python3
"""Builds and runs the campaign benchmark (see README.md).

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
fairchain libraries and campaign_bench into .bench_build/campaignbench
(about a minute on 4 CPUs); later runs only check that the build is up to
date.  Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build or the run fails.

--trace 0 runs campaign_bench PROCESSES times in a row, each for an equal
share of --seconds, and reports the median of all their samples, so that
what one process keeps to itself (its memory layout, how its malloc arenas
fill) averages out.  --trace 1 runs it once.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "campaignbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
WORKERS = "4"
PROCESSES = 3
# The end-to-end metrics, in print order, with their units.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("rep_steps_per_s", "1/s"),
              ("warm_s", "s"), ("peak_rss_mb", "MB")]


def log(message):
    print("campaignbench: " + message, file=sys.stderr, flush=True)


def cached_source_dir():
    """The source directory an existing build tree was configured for."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cached_source_dir() not in (None, HERE):
            log("build tree belongs to another checkout; reconfiguring")
            subprocess.run(["cmake", "-E", "rm", "-rf", BUILD_DIR], check=True)
        if cached_source_dir() is None:
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
             "-j", WORKERS],
            stdout=sys.stderr, check=True)


def source_digest():
    """SHA-256 over the library sources the benchmark measures, so results
    from checkouts without git metadata still name what they measured."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(directory, name) for name in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", args.trace, "--out", OUT_DIR, "--commit", commit(),
               "--source-digest", source_digest()]
    if args.trace == "1":
        result = subprocess.run(command + ["--seconds", str(args.seconds)],
                                cwd=ROOT)
        # A signal shows as a negative code; report it as a plain failure.
        return result.returncode if result.returncode >= 0 else 1
    return run_end_to_end(command, args.seconds)


def run_end_to_end(command, seconds):
    """Runs PROCESSES measuring processes and prints the pooled result."""
    reports = []
    for _ in range(PROCESSES):
        result = subprocess.run(
            command + ["--seconds", repr(seconds / PROCESSES)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = result.stdout.splitlines()
        if result.returncode != 0 or not lines:
            log("campaign_bench failed with code %d" % result.returncode)
            return 1
        for line in lines[:-1]:
            print(line)
        reports.append(json.loads(lines[-1]))

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    if len({report["digest"] for report in reports}) != 1:
        log("the processes' output bytes differ")
        failed = attempted
    metrics = {}
    for name, unit in END_TO_END:
        pooled = [value for report in reports
                  for value in report["samples"][name]]
        metrics[name] = {"value": statistics.median(pooled), "unit": unit}
        print("%-18s %22r %-4s (median of %d samples)"
              % (name, metrics[name]["value"], unit, len(pooled)))
    print("%-18s %22r ratio (%d of %d cells failed)"
          % ("fail_frac", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0 and all(
                          report["correct"] for report in reports),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
