#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative to the
repository root. Build output goes to stderr; the last line of stdout is the
binary's JSON result. --self-test runs every workload at a tiny size and
checks the output contract against BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Built and self-tested, but not in BENCHMARK.json: its single-thread
# timings swing with the load other tenants put on a shared host (see
# README.md).
EXTRA_WORKLOADS = ["frame_latency"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at the repository root; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        sys.exit("perfbench: build produced no binary")
    return binary


def run_binary(binary, args, capture=False):
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    cmd = [binary] + args + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    return proc


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(binary):
    """Tiny-size contract check: every metric named in BENCHMARK.json is
    emitted with its unit, outputs repeat bit-identically for one seed, and a
    perturbed reference makes the correctness check count failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)
        print(("ok   " if cond else "FAIL ") + what)

    def tiny(workload, seed, trace, *extra):
        proc = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "0.2", "--trace", trace, "--tiny"]
                          + list(extra), capture=True)
        if proc.returncode != 0:
            return None
        return last_json(proc.stdout)

    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in ("0", "1"):
            res = tiny(workload, 11, trace)
            check(res is not None, "%s trace=%s runs" % (workload, trace))
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace=%s result keys" % (workload, trace))
            check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  "%s trace=%s correct with no failed frames" % (workload, trace))
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == wanted[trace],
                  "%s trace=%s emits every named metric with its unit" % (workload, trace))
        first = tiny(workload, 11, "0")
        again = tiny(workload, 11, "0")
        other = tiny(workload, 12, "0")
        if first and again and other:
            fixed = ("energy_j_per_frame", "modeled_latency_ms", "map")
            check(all(first["metrics"][k]["value"] == again["metrics"][k]["value"] for k in fixed),
                  "%s modeled outputs repeat bit-identically for one seed" % workload)
            check(any(first["metrics"][k]["value"] != other["metrics"][k]["value"] for k in fixed),
                  "%s the seed reaches the generated inputs" % workload)
        perturbed = tiny(workload, 11, "0", "--perturb-reference")
        check(perturbed is not None and perturbed["correct"] is False and perturbed["failed"] > 0
              and perturbed["metrics"]["ok_frame_share"]["value"] < 1.0,
              "%s a perturbed reference is counted as failed frames" % workload)
    print("self-test: %s" % ("PASS" if not problems else "%d FAILED" % len(problems)))
    return 0 if not problems else 1


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # benchmark binary before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    sys.stdout.flush()
    return run_binary(binary, ["--workload", args.workload, "--seed", args.seed,
                               "--seconds", args.seconds, "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
