#!/usr/bin/env python3
"""Compare two result sets of the flo benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--bench BENCHMARK.json]

A result set is a directory of run records as `perfbench/run.py` writes
them to `.bench_work/results/` (copy that directory aside after running
each commit). For every workload and end-to-end metric, one row gives
each side's median and quartiles over its untraced runs and a verdict
against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change's median is better by more than the base's own
              quartile spread, and the change wins at least 9 in 10 of
              the runs paired by seed;
  unresolved  the spread of either side exceeds the bound, so a change
              within the bound cannot be told from noise;
  unchanged   otherwise (within the bound, no resolved gain).

The per-layer table then gives, from the traced runs, each layer
metric's median on both sides and the relative delta, to show where a
saving sits.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """Records of a result set: {(workload, traced): [record, ...]}."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(rec, dict) or "fingerprint" not in rec:
            continue
        key = (rec["fingerprint"]["workload"], bool(rec["trace"]))
        runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound, pairs):
    _, b_med, _ = quartiles(base)
    _, c_med, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if -worse_by > spread(base) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    return "unchanged"


def metric_values(records, section, name):
    out = {}
    for rec in records:
        m = rec.get(section, {}).get(name)
        if m is not None:
            out[rec["fingerprint"]["seed"]] = m["value"]
    return out


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.bench).read_text())
    base, change = load(args.base), load(args.change)
    workloads = [w["name"] for w in bench["workloads"]]

    print("end-to-end (untraced runs): median [q1, q3] base -> change")
    print(f"{'workload':<12} {'metric':<18} {'unit':<6} {'n':>5} {'base':>32} {'change':>32} {'delta':>8}  verdict")
    for w in workloads:
        b_recs, c_recs = base.get((w, False), []), change.get((w, False), [])
        for m in bench["end_to_end"]:
            b = metric_values(b_recs, "end_to_end", m["name"])
            c = metric_values(c_recs, "end_to_end", m["name"])
            if not b or not c:
                print(f"{w:<12} {m['name']:<18} {m['unit']:<6} {'-':>5}  missing on one side")
                continue
            bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
            pairs = [(b[s], c[s]) for s in b if s in c]
            v = verdict(list(b.values()), list(c.values()), m["better"], m["bound"], pairs)
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            side = lambda q: f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"
            print(f"{w:<12} {m['name']:<18} {m['unit']:<6} {len(b)}/{len(c):<3} "
                  f"{side(bq):>32} {side(cq):>32} {delta:>+8.1%}  {v}")

    print()
    print("per-layer (traced runs): median base -> change")
    print(f"{'workload':<12} {'metric':<34} {'unit':<9} {'base':>14} {'change':>14} {'delta':>8}")
    for w in workloads:
        b_recs, c_recs = base.get((w, True), []), change.get((w, True), [])
        if not b_recs or not c_recs:
            print(f"{w:<12} (no traced runs on one side)")
            continue
        for m in bench["per_layer"]:
            b = list(metric_values(b_recs, "per_layer", m["name"]).values())
            c = list(metric_values(c_recs, "per_layer", m["name"]).values())
            if not b or not c:
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            if bm == 0 and cm == 0:
                continue
            delta = f"{(cm - bm) / abs(bm):+8.1%}" if bm else "     new"
            unit = b_recs[0]["per_layer"][m["name"]]["unit"]
            print(f"{w:<12} {m['name']:<34} {unit:<9} {fmt(bm):>14} {fmt(cm):>14} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
