#!/usr/bin/env python3
"""Build and run the real-cost benchmark from the root of a source tree.

    python3 perfbench/run.py --workload simm-edge --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check --seed 1 --heldout 2

The first form builds perfbench/main.exe with dune (inside the tree, with
dune's shared cache off) and runs one workload; the last line of its output
is the JSON result. The second form is the determinism self-check: every
workload runs twice on one seed, the simulated outcome and every counter
must agree bit for bit, and one more run on a held-out seed must pass its
correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["simm-edge", "zipf-fleet", "tail-peer"]
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no source tree to build here (dune-project and lib/ are missing)")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=BUILD_TIMEOUT)
    except FileNotFoundError:
        die("dune is not on PATH")
    except subprocess.TimeoutExpired:
        die("the build did not finish in time")
    if done.returncode != 0:
        die("the build failed")


def run(args, echo=True):
    """Run main.exe; return (exit code, stdout lines)."""
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        die("the benchmark did not finish in time")
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def run_seconds():
    """The run length BENCHMARK.json fixes: the default for --seconds."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        die("BENCHMARK.json with a run_seconds is missing")


def deterministic_part(lines):
    """The counter-derived per-layer metrics and the simulated outcome lines."""
    result = json.loads(lines[-1])
    counted = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio") and not name.startswith(("gc.", "ledger."))
    }
    sim = [line for line in lines if line.startswith(("  simulated latency over", "  goodput"))]
    return result, counted, sim


def check(seed, heldout, seconds):
    ok = True
    for w in WORKLOADS:
        common = ["--workload", w, "--seconds", str(seconds), "--trace", "1"]
        outs = []
        for _ in range(2):
            code, lines = run(["--seed", str(seed)] + common, echo=False)
            if code != 0 or not lines:
                print(f"{w}: run on seed {seed} failed (exit {code})")
                ok = False
                break
            outs.append(deterministic_part(lines))
        if len(outs) == 2:
            (r1, c1, s1), (r2, c2, s2) = outs
            same = c1 == c2 and s1 == s2 and r1["correct"] and r2["correct"]
            print(f"{w}: seed {seed} twice: {len(c1)} counts and the simulated outcome "
                  f"{'are bit-identical' if same else 'DIFFER'}: {s1[0].strip() if s1 else '?'}")
            if not same:
                for k in sorted(set(c1) | set(c2)):
                    if c1.get(k) != c2.get(k):
                        print(f"    {k}: {c1.get(k)} vs {c2.get(k)}")
                ok = False
        code, lines = run(["--seed", str(heldout)] + common, echo=False)
        passed = code == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        print(f"{w}: held-out seed {heldout}: correctness check {'passed' if passed else 'FAILED'}")
        ok = ok and passed
    print("determinism check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measured seconds (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true", help="run the determinism self-check")
    ap.add_argument("--heldout", type=int, default=7919, help="held-out seed for --check")
    args = ap.parse_args()
    if not args.check and args.workload is None:
        ap.error("--workload is required (or --check)")
    build()
    seconds = args.seconds if args.seconds is not None else run_seconds()
    if args.check:
        return check(args.seed, args.heldout, min(seconds, 2.0))
    code, _ = run(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
