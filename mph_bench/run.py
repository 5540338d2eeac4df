#!/usr/bin/env python3
"""Build and run mph_bench from the root of a checkout.

    python3 mph_bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 mph_bench/run.py                 # every workload, one process each
    python3 mph_bench/run.py --smoke         # quick correctness and name check

The benchmark is built from source on first use into .bench_build/mph_bench
(Release).  A run's standard output ends with the result line mph_bench
prints; before passing it on, this script checks that its metric names and
units are exactly those BENCHMARK.json lists for the run's trace setting.
--record FILE appends each result, with its workload, seed and trace
setting and the per-unit spread lines of an untraced run, to FILE as one
JSON line for compare.py.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mph_bench")
WORKLOADS = ["pingpong_small", "pingpong_large", "fanin", "handshake", "ccsm"]
RUN_TIMEOUT_S = 170
# "latency_us over 885 units: median 2.833, slow tail p90 3.909, fast p1 2.71"
SPREAD_LINE = re.compile(
    r"^(?P<name>\w+) over (?P<n>\d+) units: median (?P<median>\S+), "
    r"slow tail p(?P<q>\d+) (?P<slow>\S+), fast p\d+ (?P<fast>\S+)$")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the mph_bench target; return its path."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "mph_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(BUILD, "mph_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spreads(lines):
    """{metric: {"n", "median", "slow_q", "slow", "fast"}} from the lines
    mph_bench prints on how a gated per-unit value spreads over the run."""
    out = {}
    for line in lines:
        m = SPREAD_LINE.match(line)
        if m:
            out[m["name"]] = {"n": int(m["n"]), "median": float(m["median"]),
                              "slow_q": int(m["q"]), "slow": float(m["slow"]),
                              "fast": float(m["fast"])}
    return out


def run_one(binary, workload, seed, seconds, trace, quick=False, echo=True):
    """Run one workload in its own process; return (exit code, result,
    output lines before the result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, []
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} printed no result line")
        return proc.returncode or 1, None, lines
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        log(f"run.py: {workload} metrics differ from BENCHMARK.json: "
            f"missing {missing}, unlisted {extra}, unit mismatch {units}")
        return 1, None, lines
    return proc.returncode, result, lines[:-1]


def smoke(binary):
    """Every workload once untraced and once traced, --quick --seed 7."""
    ok = True
    for trace in (0, 1):
        for w in WORKLOADS:
            start = time.monotonic()
            code, result, _ = run_one(binary, w, 7, None, trace, quick=True,
                                      echo=False)
            passed = code == 0 and result is not None and result["correct"]
            ok = ok and passed
            print(f"smoke: {w} trace={trace} "
                  f"{'ok' if passed else 'FAILED'} "
                  f"({time.monotonic() - start:.1f} s)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this mph_bench instead of building")
    ap.add_argument("--record", help="append results to this JSONL file")
    args = ap.parse_args()

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)

    status = 0
    for w in [args.workload] if args.workload else WORKLOADS:
        code, result, lines = run_one(binary, w, args.seed, args.seconds,
                                      args.trace)
        if result is None:
            return code or 1
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"workload": w, "seed": args.seed,
                                    "trace": args.trace, "result": result,
                                    "spread": spreads(lines)}) + "\n")
        print(json.dumps(result), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
