#!/usr/bin/env python3
"""Steadiness check for the fodef benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs the command of ``BENCHMARK.json`` on every workload it lists
``--runs`` times at its ``run_seconds``, one seed per run (1, 2, ...),
rotating the workload order from run to run.  For each end-to-end metric it
prints the median, the quartiles and the spread (quartile distance over
median) against the metric's bound, and the share of failed operations.
With ``--sets 2`` it repeats the whole set on fresh seeds and also compares
the second median with the first.  It exits 1 when a spread or a drift
passes its bound or the failed shares of the sets differ.  Results go to
``perfbench/results/steady-<time>.json``.  Run it from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    out["seed"] = seed
    out["stderr"] = proc.stderr
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = bench["end_to_end"]

    runs: dict = {}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            shift = i % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                out = run_once(bench["command"], w, seed, seconds)
                runs.setdefault((s, w), []).append(out)
                print(f"set {s + 1} {w:10s} seed {seed:3d} wall "
                      f"{out['wall_s']:5.1f}s attempted {out['attempted']:5d} "
                      f"failed {out['failed']}", flush=True)
                sys.stdout.write(out["stderr"])

    report = {"seconds": seconds, "runs": args.runs, "sets": args.sets,
              "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        for s in range(args.sets):
            outs = runs[(s, w)]
            fails = sorted({o["failed"] / o["attempted"] for o in outs})
            rows[f"failed_share_set{s + 1}"] = fails
            for m in e2e:
                vals = [o["metrics"][m["name"]]["value"] for o in outs]
                rows.setdefault(m["name"], {})[f"set{s + 1}"] = summarize(vals)
        print(f"\n{w}: failed share per run {rows['failed_share_set1']}")
        for m in e2e:
            first = rows[m["name"]]["set1"]
            line = (f"  {m['name']:17s} median {first['median']:11.4f} "
                    f"q1 {first['q1']:11.4f} q3 {first['q3']:11.4f} "
                    f"spread {first['spread']:.3f} / bound {m['bound']}")
            if first["spread"] > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif first["spread"] > m["bound"] / 3:
                line += "  (over a third of the bound)"
            if args.sets == 2:
                second = rows[m["name"]]["set2"]
                drift = worse_by(first["median"], second["median"], m["better"])
                line += f"  set2 worse by {drift:+.3f}"
                if drift > m["bound"]:
                    ok = False
                    line += "  DRIFT OVER BOUND"
            print(line)
        if args.sets == 2 and rows["failed_share_set1"] != rows["failed_share_set2"]:
            ok = False
            print("  failed share differs between the sets")
        rows["runs"] = [o for s in range(args.sets) for o in runs[(s, w)]]
        report["workloads"][w] = rows
    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    path = os.path.join("perfbench", "results",
                        time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwritten to {path}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
