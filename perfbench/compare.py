#!/usr/bin/env python3
"""Summarises one set of benchmark runs, or compares two.

    python3 perfbench/compare.py RUNS_DIR             # spread of one set
    python3 perfbench/compare.py BASE_DIR HEAD_DIR    # parent vs change

A set is a directory of saved run outputs (perfbench/collect.py writes
them); only --trace 0 runs are read. For each workload and end-to-end
metric of BENCHMARK.json it prints the median and quartiles
(statistics.quantiles, n=4) of each set.

One set: the spread (q3 - q1) / median next to the metric's bound.
Two sets: a verdict per metric:
  improved    the change wins >= 90% of the runs paired by seed, and the
              medians differ by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's spread exceeds the bound and not every run of
              the change is better than every run of the parent
  no worse    otherwise
It also lists seeds whose result fingerprint differs between the sets.
That is informational: a model change legitimately moves it, a speed-only
change must not.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: record}} from the RECORD lines of trace-0 runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        for line in path.read_text().splitlines():
            if line.startswith("RECORD "):
                rec = json.loads(line[len("RECORD "):])
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    if not runs:
        sys.exit(f"compare: no trace-0 RECORD lines under {directory}")
    return runs


def values(records, metric):
    return {seed: rec["metrics"][metric]["value"]
            for seed, rec in records.items() if metric in rec["metrics"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """base/head: {seed: value}. Returns (verdict, worse_share)."""
    b, h = list(base.values()), list(head.values())
    q1, mb, q3 = quartiles(b)
    mh = quartiles(h)[1]
    lower = better == "lower"

    def is_better(x, y):
        return x < y if lower else x > y

    worse = ((mh - mb) if lower else (mb - mh)) / mb if mb else 0.0
    shared = sorted(set(base) & set(head))
    pairs = ([(base[s], head[s]) for s in shared] if shared
             else list(zip(b, h)))
    wins = sum(1 for x, y in pairs if is_better(y, x))
    if (pairs and wins >= 0.9 * len(pairs) and is_better(mh, mb)
            and abs(mh - mb) > q3 - q1):
        return "improved", worse
    if worse > bound:
        return "regressed", worse
    all_better = all(is_better(y, x) for x in b for y in h)
    if mb and (q3 - q1) / mb > bound and not all_better:
        return "unresolved", worse
    return "no worse", worse


def machine_line(runs):
    rec = next(iter(next(iter(runs.values())).values()))
    m = rec["machine"]
    return (f"{m['cpu']}, nproc {m['nproc']}, {m['compiler']}, "
            f"{m['build_type']}, sanitizer {m['sanitizer']}, {m['source']}")


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    for d, runs in zip(argv, sets):
        print(f"{d}: {machine_line(runs)}")
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        if any(name not in runs for runs in sets):
            print(f"\n{name}: missing from a set")
            continue
        print(f"\n{name}")
        for m in spec["end_to_end"]:
            cols = []
            for runs in sets:
                xs = sorted(values(runs[name], m["name"]).values())
                q1, med, q3 = quartiles(xs)
                cols.append(f"n={len(xs):<2} median {med:<12.6g} "
                            f"q1 {q1:<12.6g} q3 {q3:<12.6g}")
            line = f"  {m['name']:<13} " + " | ".join(cols)
            base = values(sets[0][name], m["name"])
            if len(sets) == 1:
                xs = sorted(base.values())
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / med if med else float("inf")
                mark = "ok" if spread <= m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "TOO WIDE")
                line += (f" spread {spread:.4f} (bound {m['bound']}) {mark}")
            else:
                v, worse = verdict(base, values(sets[1][name], m["name"]),
                                   m["better"], m["bound"])
                status |= v == "regressed"
                line += f" -> {v} ({worse:+.2%} worse, bound {m['bound']})"
            print(line)
        if len(sets) == 2:
            fb = {s: r["fingerprint"] for s, r in sets[0][name].items()}
            fh = {s: r["fingerprint"] for s, r in sets[1][name].items()}
            moved = sorted(s for s in set(fb) & set(fh) if fb[s] != fh[s])
            print(f"  fingerprints: " + (
                f"DIFFER on seeds {moved}" if moved else
                f"identical on {len(set(fb) & set(fh))} shared seeds"))
        failed = sum(r["failed"] for runs in sets for r in runs[name].values())
        if failed:
            print(f"  {failed} experiment(s) failed a correctness check")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
