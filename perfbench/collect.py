#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves each run's output.

    python3 perfbench/collect.py OUT_DIR [--workloads a,b] [--seeds 1-10]
                                 [--seconds 10] [--trace 0]

Each run's standard output goes to OUT_DIR/<workload>-seed<N>-trace<T>.out,
the input perfbench/compare.py reads. Workloads default to all four of
BENCHMARK.json and the run length to its run_seconds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=False)
            name = f"{workload}-seed{seed}-trace{args.trace}.out"
            (out / name).write_text(res.stdout)
            last = res.stdout.rstrip("\n").rsplit("\n", 1)[-1]
            status = "ok" if res.returncode == 0 else f"exit {res.returncode}"
            if res.returncode != 0 or '"correct": true' not in last:
                failures += 1
                status += " (not correct)"
            print(f"{name}: {status}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
