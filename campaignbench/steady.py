#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

Runs run.py on every workload with several seeds, round-robin across
workloads so drift in machine speed hits each workload evenly, and does
this for two independent sets. For every (end-to-end metric x workload)
it prints each set's median and quartiles, the spread (inter-quartile
distance over the median) and the shift of the second median against
the first, next to the metric's bound from BENCHMARK.json. It also
prints the bound each metric's worst spread calls for (see
derived_bound).

    python3 campaignbench/steady.py --seeds 10 --sets 2 \
        --out campaignbench/steadiness.json

The output file keeps every run's metrics as well as the summaries;
`--from FILE` summarises the runs saved in FILE again without running
anything, e.g. after a bound changed. Run from the root of a checkout;
takes about 25-40 s per run.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

SETUP = "setup_s"
MAX_BOUND = 0.25


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "campaignbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def derived_bound(name, rows):
    """Three times the metric's worst spread over every workload and set,
    rounded up to a whole percent, at most MAX_BOUND. setup_s always gets
    MAX_BOUND, the largest bound of all."""
    if name == SETUP:
        return MAX_BOUND
    worst = max(s["spread"] for r in rows if r["metric"] == name
                for s in r["sets"])
    return min(MAX_BOUND, math.ceil(300 * worst - 1e-9) / 100)


def collect(bench, workloads, seeds, sets):
    runs = []
    for s in range(sets):
        for i in range(seeds):
            seed = 1000 * (s + 1) + i
            for w in workloads:
                r = run_once(w, seed, bench["run_seconds"])
                runs.append({"set": s, "seed": seed, "workload": w,
                             "correct": r["correct"],
                             "attempted": r["attempted"], "failed": r["failed"],
                             "metrics": {k: v["value"]
                                         for k, v in r["metrics"].items()}})
                print("set %d seed %d %-15s correct=%s %s" % (
                    s, seed, w, r["correct"],
                    " ".join("%s=%.5g" % (k, v["value"])
                             for k, v in r["metrics"].items())),
                    flush=True)
    return runs


def summarise(bench, runs):
    metrics = bench["end_to_end"]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    sets = sorted({r["set"] for r in runs})
    rows = []
    for w in workloads:
        for m in metrics:
            per_set = [summary([r["metrics"][m["name"]] for r in runs
                                if r["workload"] == w and r["set"] == s])
                       for s in sets]
            shift = None
            if len(sets) > 1:
                d = ((per_set[1]["median"] - per_set[0]["median"])
                     / per_set[0]["median"])
                shift = d if m["better"] == "lower" else -d
            rows.append({"workload": w, "metric": m["name"],
                         "bound": m["bound"], "sets": per_set,
                         "worse_shift": shift})
    for r in rows:
        print("%-15s %-14s bound %.2f  %s  shift %s" % (
            r["workload"], r["metric"], r["bound"],
            "  ".join("med %.5g q1 %.5g q3 %.5g spread %.3f" % (
                x["median"], x["q1"], x["q3"], x["spread"]) for x in r["sets"]),
            "-" if r["worse_shift"] is None else "%+.3f" % r["worse_shift"]))
    bounds = {m["name"]: derived_bound(m["name"], rows) for m in metrics}
    for m in metrics:
        print("%-14s bound %.2f  derived %.2f" % (
            m["name"], m["bound"], bounds[m["name"]]))
    failed = sum(1 for r in runs if not r["correct"])
    print("runs not correct: %d of %d" % (failed, len(runs)))
    return {"runs_not_correct": failed, "derived_bounds": bounds,
            "rows": rows, "runs": runs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--from", dest="source", default="",
                    help="summarise the runs saved in this file instead")
    ap.add_argument("--out", default="")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.source:
        with open(a.source) as f:
            runs = json.load(f)["runs"]
    else:
        workloads = ([w for w in a.workloads.split(",") if w]
                     or [w["name"] for w in bench["workloads"]])
        runs = collect(bench, workloads, a.seeds, a.sets)
    report = summarise(bench, runs)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
