#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark, parent vs change.

    python3 ibbench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds the records run.py --out appends, one run per line. Only
untraced runs (header.trace == 0) are compared. Per (workload, end-to-end
metric) the tool prints each side's median and quartiles, the change's median
delta (positive = better), and the pair win fraction. Runs are paired by seed
when both sides ran the same seeds, otherwise in file order; either way,
alternate which side runs first when producing them.

Verdicts, with the bounds from BENCHMARK.json:
  REGRESSION  change median worse than the parent's by more than the bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  gain        the change wins >= 9/10 of the pairs (ties count for neither),
              the medians differ by more than the parent's IQR, and no more
              requests failed than at the parent
  same        none of the above
It also reports whether the training digest (weights, mask, losses,
accuracies) matched per seed, and host/build header fields that differ.
Exits 1 if any pair (workload, metric) is a REGRESSION.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = collections.defaultdict(list)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("header", {}).get("trace", 0) != 0:
                continue
            runs[rec["header"].get("workload", "?")].append(rec)
    return runs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def pairs(p_runs, c_runs):
    """Pairs by seed when both sides ran the same seeds (second value True),
    otherwise in file order."""
    ps = {r["header"].get("seed"): r for r in p_runs}
    cs = {r["header"].get("seed"): r for r in c_runs}
    if len(ps) == len(p_runs) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)], True
    return list(zip(p_runs, c_runs)), False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)

    regressions = 0
    for w in [x["name"] for x in bench["workloads"]]:
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        if not p_runs or not c_runs:
            print("%s: missing runs (parent %d, change %d)" % (w, len(p_runs), len(c_runs)))
            continue
        pr, by_seed = pairs(p_runs, c_runs)
        print("%s: parent %d runs, change %d runs, %d pairs (%s)" %
              (w, len(p_runs), len(c_runs), len(pr),
               "by seed" if by_seed else "in file order"))
        for key in ("nproc", "cpu", "pool_lanes", "serve_workers", "build_type", "march"):
            pv = {r["header"].get(key) for r in p_runs}
            cv = {r["header"].get(key) for r in c_runs}
            if pv != cv:
                print("  header differs: %s parent %s change %s" % (key, sorted(map(str, pv)), sorted(map(str, cv))))
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        print("  failed requests: parent %d, change %d" % (p_failed, c_failed))
        print("  %-22s %-34s %-34s %8s %6s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            delta = sign * (cmed - pmed) / pmed if pmed else 0.0
            spread = (p3 - p1) / pmed if pmed else float("inf")
            wins = sum(1 for a, b in pr
                       if sign * (b["result"]["metrics"][name]["value"] -
                                  a["result"]["metrics"][name]["value"]) > 0)
            all_better = min(sign * x for x in cv) > max(sign * x for x in pv)
            if delta < -bound:
                verdict = "REGRESSION (bound %.0f%%)" % (100 * bound)
                regressions += 1
            elif spread > bound and not all_better:
                verdict = "unresolved (parent spread %.0f%% > bound)" % (100 * spread)
            elif (wins >= 0.9 * len(pr) and abs(cmed - pmed) > (p3 - p1)
                  and c_failed <= p_failed):
                verdict = "gain"
            else:
                verdict = "same"
            print("  %-22s %-34s %-34s %+7.1f%% %2d/%-3d %s" % (
                name, "%.5g [%.5g, %.5g]" % (pmed, p1, p3),
                "%.5g [%.5g, %.5g]" % (cmed, c1, c3), 100 * delta, wins, len(pr),
                verdict))
        if not by_seed:
            print("  training digest not compared: the sides ran different seeds")
            continue
        same = [a["header"]["seed"] for a, b in pr
                if a.get("digest") and a.get("digest") == b.get("digest")]
        diff = [a["header"]["seed"] for a, b in pr
                if a.get("digest") and b.get("digest") and a["digest"] != b["digest"]]
        print("  training digest equal on seeds %s; different on %s" % (same, diff))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
