#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload zipf-fleet --seeds 1-10 [--seconds 10]

Runs the untraced benchmark once per seed and prints, for every metric, its
median, its quartiles and the distance between the quartiles as a share of
the median, next to the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(out[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: the correctness check failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(seeds_of(args.seeds))} seeds")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else f"  bound {bound}" + ("" if spread <= bound / 3 else "  (over a third of the bound)")
        print(f"  {name:<16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{mark}")


if __name__ == "__main__":
    main()
