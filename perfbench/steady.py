#!/usr/bin/env python3
"""Steadiness report: runs each workload once per seed and compares the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--out FILE.jsonl]

Per run it prints the metrics next to the host-noise record (hypervisor
steal, involuntary context switches), so a run disturbed by the host can
be told apart from a program change. Per workload and metric it prints the
median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), flagged against the metric's bound.
With --out, every run's host and result lines are appended as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(bounds)
    ok = True
    for w in args.workloads.split(","):
        values = {n: [] for n in names}
        print(f"== {w}")
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            host = json.loads(lines[-2])["host"]
            res = json.loads(lines[-1])
            for n in names:
                values[n].append(res["metrics"][n]["value"])
            cells = "  ".join(f"{n}={res['metrics'][n]['value']:.6g}"
                              for n in names)
            print(f"seed {seed:3d}: {cells}  failed={res['failed']}/"
                  f"{res['attempted']}  steal={host['steal_pct']:.2f}%  "
                  f"invol_cs/s={host['invol_cs_per_s']:.0f}", flush=True)
            ok = ok and res["correct"] and res["failed"] == 0
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "host": host, "result": res}) + "\n")
        for n in names:
            v = values[n]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= bounds[n] / 3 else (
                "WITHIN BOUND" if spread <= bounds[n] else "OVER BOUND")
            print(f"   {n:15s} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[n]:.0%}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
