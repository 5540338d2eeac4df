#!/usr/bin/env python3
"""Gate instrumentation overhead within one Google Benchmark run.

Used by the perf-smoke CI job: benchmarks run with the `--json <file>`
reporter (see bench/bench_util.hpp), and this script pairs benchmarks
within one result set whose names differ only by an off/on token
(bench_metrics tags them `monitor:0` / `monitor:1` via ArgNames).  It
fails when the instrumented variant exceeds the plain one by more than the
allowed factor, or when an off variant has no on partner: a relative gate
that compares the machine with itself, never with an absolute number.

Usage:
    check_bench_regression.py overhead <result.json>... \
        [--off monitor:0] [--on monitor:1] [--max-ratio 2.0]

Only the Python standard library is used.
"""

import argparse
import json
import sys
from statistics import median

# Aggregate entries ("_mean", "_median", ...) from --benchmark_repetitions
# runs; prefer the median aggregate when present, else the raw iterations.
_AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(paths):
    """benchmark name -> representative real_time in nanoseconds."""
    raw = {}
    medians = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for bench in doc.get("benchmarks", []):
            name = bench.get("name", "")
            if bench.get("run_type") == "aggregate":
                if bench.get("aggregate_name") == "median":
                    base = name
                    for suffix in _AGGREGATE_SUFFIXES:
                        if base.endswith(suffix):
                            base = base[: -len(suffix)]
                            break
                    medians[base] = to_ns(bench)
                continue
            raw.setdefault(name, []).append(to_ns(bench))
    times = {name: median(values) for name, values in raw.items()}
    times.update(medians)  # aggregate medians win over raw medians
    return times


def to_ns(bench):
    unit = _UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
    return float(bench["real_time"]) * unit


def cmd_overhead(args):
    times = load_times(args.results)
    pairs = []
    unpaired = []
    for name in sorted(times):
        if args.off not in name:
            continue
        on_name = name.replace(args.off, args.on)
        if on_name in times:
            pairs.append((name, on_name))
        else:
            unpaired.append(name)
    if unpaired:
        print(f"FAIL: {len(unpaired)} '{args.off}' benchmark(s) unpaired, "
              f"no '{args.on}' partner:", file=sys.stderr)
        for name in unpaired:
            print(f"  {name}", file=sys.stderr)
        return 1
    if not pairs:
        print(f"check_bench_regression: no '{args.off}'/'{args.on}' pairs "
              "in results", file=sys.stderr)
        return 1

    failures = []
    width = max(len(on) for _, on in pairs)
    print(f"{'benchmark (instrumented)':<{width}} {'off':>12} {'on':>12} "
          f"{'ratio':>7}")
    for off_name, on_name in pairs:
        off_ns = times[off_name]
        on_ns = times[on_name]
        ratio = on_ns / off_ns if off_ns > 0 else float("inf")
        flag = "  FAIL" if ratio > args.max_ratio else ""
        print(f"{on_name:<{width}} {off_ns:>12.0f} {on_ns:>12.0f} "
              f"{ratio:>6.2f}x{flag}")
        if ratio > args.max_ratio:
            failures.append((on_name, ratio))

    if failures:
        print(f"\nFAIL: {len(failures)} instrumented benchmark(s) exceed "
              f"{args.max_ratio:.1f}x their uninstrumented pair:",
              file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nOK: instrumentation overhead within {args.max_ratio:.1f}x "
          f"on {len(pairs)} pair(s)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_over = sub.add_parser(
        "overhead", help="compare instrumented/uninstrumented pairs")
    p_over.add_argument("results", nargs="+")
    p_over.add_argument("--off", default="monitor:0",
                        help="name token of the uninstrumented variant "
                        "(default: monitor:0)")
    p_over.add_argument("--on", default="monitor:1",
                        help="name token of the instrumented variant "
                        "(default: monitor:1)")
    p_over.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when on/off exceeds this (default: 2.0)")
    p_over.set_defaults(func=cmd_overhead)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
