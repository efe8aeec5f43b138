#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the mnemo consultant.

Builds perfbench/ (which compiles the repository's src/ libraries) into
.bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

The last line of stdout is the JSON result. Other modes:

    python3 perfbench/run.py --record   # rewrite perfbench/expected/digests.tsv
    python3 perfbench/run.py --test     # the benchmark's own helper tests

Run it from the root of a checkout; it reads and writes only there.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
DIGESTS = os.path.join(ROOT, "perfbench", "expected", "digests.tsv")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def check_call(cmd):
    """Runs a build step with its output on stderr (stdout ends in JSON)."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("src/ is missing: run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            check_call(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        check_call(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", *targets])


def manifest_mismatch(stdout, trace):
    """Why the result line does not hold exactly the manifest's metrics of
    this mode, each in its unit; None when it does."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace == "1" else "end_to_end"]}
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result"
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"missing {missing}, unexpected {extra}, wrong unit {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["oneshot", "sweep", "serve_mix"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--test", action="store_true")
    args = parser.parse_args()
    binary = os.path.join(BUILD, "perfbench")

    try:
        if args.test:
            build(["perfbench_tests"])
            return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                                  cwd=ROOT).returncode
        build(["perfbench"])
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    common = ["--digests", DIGESTS, "--work-dir", WORK]
    if args.record:
        return subprocess.run([binary, "--record", *common],
                              cwd=ROOT).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, *common]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    why = manifest_mismatch(proc.stdout, args.trace)
    if why is not None:
        sys.stdout.write(proc.stdout.rstrip("\n").rpartition("\n")[0] + "\n")
        log(f"result does not match BENCHMARK.json: {why}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
