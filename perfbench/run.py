#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the simulator libraries
plus the ffbench program) in Release under $CARGO_TARGET_DIR, default
.bench_build/; later runs only check that the build is up to date. Build
output goes to stderr. ffbench's output is passed through, so the last
line of standard output is the JSON result.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources (CMakeLists.txt, src/) under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                          check=False).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "--target", "ffbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                      check=False).returncode != 0:
        fail("build failed")
    return out / "ffbench"


def source_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "cmake", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S "
             "--trace 0|1")
    out = build_dir()
    binary = build(out)
    cmd = [str(binary), *argv, "--source", source_id()]
    trace = args.get("--trace") == "1"
    if trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / "{}-seed{}.jsonl".format(
            args["--workload"], args.get("--seed", "1")))]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=False)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        print("\n".join(lines[:-1]))
        fail(f"ffbench exited with {res.returncode}")
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(result['metrics'])} vs {sorted(expected)}")
    print(res.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
