#!/usr/bin/env python3
"""Compare two sets of mph_bench runs, or summarise one.

    python3 mph_bench/compare.py BASE.jsonl [CHANGE.jsonl] [--trace 0|1]

Inputs are the JSON lines `run.py --record FILE` appends.  Runs of one
workload are paired in file order, so record BASE and CHANGE as alternating
pairs (at least ten) with the same seeds and --seconds.

With one file, prints for each (workload, metric) the median, the quartiles
and the spread (quartile distance over median) next to the metric's bound in
BENCHMARK.json.  With two, prints both sides' median and quartiles, the
share of pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than BASE's quartile
              distance;
  worse       the change's median is worse than BASE's by more than the
              metric's bound (per-layer metrics, which have no bound: the
              mirror image of "improved");
  slower      worse by no more than the bound, but the mirror image of
              "improved": the change lost at least 9 of 10 pairs and the
              medians differ by more than BASE's quartile distance;
  unresolved  BASE's spread is wider than the bound, and the change is
              neither improved nor better than BASE on every run;
  unchanged   otherwise.

For untraced runs it also prints, below the gated rows, rows for the median
and the slow tail over the run's units of `latency_us` and `ops_per_s`
(named e.g. `latency_us.median`, `latency_us.p99`), judged against the same
bound but not gated: the gated values are the fast tail over units
(README.md, "Noise").

Exits 1 when any gated end-to-end metric is worse.  Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path, trace):
    """{workload: [metrics dict, ...]} in file order.  The per-unit spread
    lines of a run add `<metric>.median` and `<metric>.p<q>` entries."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != trace:
                continue
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            for name, s in rec.get("spread", {}).items():
                metrics[f"{name}.median"] = s["median"]
                metrics[f"{name}.p{s['slow_q']}"] = s["slow"]
            runs.setdefault(rec["workload"], []).append(metrics)
    return runs


def ungated(metrics, runs):
    """The spread rows present in every run: (name, better, bound) of the
    gated metric each belongs to."""
    rows = []
    for m in metrics:
        prefix = m["name"] + "."
        names = set.intersection(*({k for k in r if k.startswith(prefix)}
                                   for r in runs))
        rows += [{"name": n, "better": m["better"], "bound": m.get("bound"),
                  "gated": False} for n in sorted(names)]
    return rows


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and sign * (mc - mb) > q3 - q1:
        return "improved", wins, len(pairs)
    lost = losses >= 0.9 * len(pairs) and sign * (mb - mc) > q3 - q1
    if bound is None:
        return ("worse" if lost else "unchanged"), wins, len(pairs)
    scale = abs(mb) or 1.0
    worse_by = sign * (mb - mc) / scale
    spread = (q3 - q1) / scale
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (c - b) < 0 for c in change for b in base)
    if worse_by > bound:
        return ("worse" if spread <= bound or all_worse else "unresolved"), wins, len(pairs)
    if lost:
        return "slower", wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    base = load_runs(args.base, args.trace)
    change = load_runs(args.change, args.trace) if args.change else None

    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        runs = base[workload] + (change.get(workload, []) if change else [])
        for m in metrics + ungated(metrics, runs):
            name, bound = m["name"], m.get("bound")
            gated = m.get("gated", True)
            tag = "" if gated else " (not gated)"
            a = [r[name] for r in base[workload]]
            if change is None:
                q1, q2, q3 = quartiles(a)
                spread = (q3 - q1) / (abs(q2) or 1.0)
                note = ""
                if bound is not None:
                    note = ("over bound" if spread > bound else
                            "over bound/3" if spread > bound / 3 else "ok")
                    note = f"bound {bound:g} {note}"
                print(f"{workload:15} {name:26} n={len(a):<3} {fmt(a):40} "
                      f"spread {spread:.4f} {note}{tag}")
                continue
            b = [r[name] for r in change.get(workload, [])]
            if not b:
                continue
            n = min(len(a), len(b))
            v, wins, pairs = verdict(a[:n], b[:n], m["better"], bound)
            worse = worse or (v == "worse" and bound is not None and gated)
            print(f"{workload:15} {name:26} base {fmt(a[:n]):38} "
                  f"change {fmt(b[:n]):38} won {wins}/{pairs} {v}{tag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
